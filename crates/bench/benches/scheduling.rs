//! Criterion benches for scheduling-round latency: the Rubick policy must
//! be cheap enough to run on every job submission/completion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rubick_core::rubick::RubickConfig;
use rubick_core::{
    rubick_e, rubick_n, rubick_r, AntManScheduler, ModelRegistry, RubickScheduler, SiaScheduler,
    SynergyScheduler,
};
use rubick_model::{ExecutionPlan, ModelSpec, NodeShape, Resources};
use rubick_sim::cluster::{Allocation, Cluster};
use rubick_sim::job::{JobClass, JobSpec, JobStatus};
use rubick_sim::scheduler::{JobDelta, JobSnapshot, Scheduler};
use rubick_sim::tenant::TenantId;
use rubick_testbed::TestbedOracle;
use std::hint::black_box;
use std::sync::Arc;

fn snapshots(n: usize) -> Vec<JobSnapshot> {
    let models = [
        ModelSpec::roberta_large(),
        ModelSpec::bert_large(),
        ModelSpec::gpt2_xl(),
        ModelSpec::t5_1b(),
    ];
    (0..n)
        .map(|i| {
            let model = models[i % models.len()].clone();
            let gpus = [1u32, 2, 4, 8][i % 4];
            JobSnapshot {
                spec: Arc::new(JobSpec {
                    id: i as u64,
                    global_batch: model.default_batch,
                    submit_time: 0.0,
                    target_batches: 1000,
                    requested: Resources::new(gpus, gpus * 6, gpus as f64 * 100.0),
                    initial_plan: ExecutionPlan::dp(gpus),
                    class: JobClass::Guaranteed,
                    tenant: TenantId::default(),
                    model,
                }),
                status: JobStatus::Queued,
                remaining_batches: 1000.0,
                queued_since: 0.0,
                runtime: 0.0,
                reconfig_count: 0,
                baseline_throughput: Some(100.0),
            }
        })
        .collect()
}

fn bench_round(c: &mut Criterion) {
    let oracle = TestbedOracle::new(0);
    let registry = Arc::new(
        ModelRegistry::from_oracle(
            &oracle,
            &[
                ModelSpec::roberta_large(),
                ModelSpec::bert_large(),
                ModelSpec::gpt2_xl(),
                ModelSpec::t5_1b(),
            ],
        )
        .unwrap(),
    );
    // Warm the curve cache once (as the scheduler does in production).
    registry.warm_curves(64, |s| s.default_batch);

    let mut group = c.benchmark_group("policy/rubick_round");
    group.sample_size(10);
    for jobs in [8usize, 32, 64, 256, 1024] {
        let snaps = snapshots(jobs);
        let cluster = Cluster::new(8, NodeShape::a800());
        group.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, _| {
            let mut sched = RubickScheduler::new(Arc::clone(&registry));
            b.iter(|| black_box(sched.schedule(0.0, &snaps, &cluster, &[])))
        });
    }
    group.finish();
}

fn bench_all_policies(c: &mut Criterion) {
    let oracle = TestbedOracle::new(0);
    let registry = Arc::new(
        ModelRegistry::from_oracle(
            &oracle,
            &[
                ModelSpec::roberta_large(),
                ModelSpec::bert_large(),
                ModelSpec::gpt2_xl(),
                ModelSpec::t5_1b(),
            ],
        )
        .unwrap(),
    );
    registry.warm_curves(64, |s| s.default_batch);
    let snaps = snapshots(32);
    let cluster = Cluster::new(8, NodeShape::a800());

    let mut group = c.benchmark_group("policy/round_32_jobs");
    group.sample_size(10);
    let mut policies: Vec<Box<dyn Scheduler>> = vec![
        Box::new(RubickScheduler::new(Arc::clone(&registry))),
        Box::new(rubick_e(Arc::clone(&registry))),
        Box::new(rubick_r(Arc::clone(&registry))),
        Box::new(rubick_n(Arc::clone(&registry))),
        Box::new(SiaScheduler::new(Arc::clone(&registry))),
        Box::new(SynergyScheduler::new(Arc::clone(&registry))),
        Box::new(AntManScheduler::new()),
    ];
    for policy in policies.iter_mut() {
        let name = policy.name().to_string();
        group.bench_function(&name, |b| {
            b.iter(|| black_box(policy.schedule(0.0, &snaps, &cluster, &[])))
        });
    }
    group.finish();
}

/// Steady-state incremental rounds (`RubickConfig::incremental`): a
/// cluster exactly tiled by equal-norm running jobs plus a deep queue of
/// unplaceable best-effort jobs, the common shape of a busy cluster
/// between arrival bursts.
///
/// Four variants per job count (`BENCH_SMOKE=1` trims to 1024 jobs only,
/// for the quick `make bench-smoke` sanity pass):
///   * `full`    — `incremental = false`: every round re-plans all jobs.
///   * `clean`   — the engine's delta says nothing changed; classification
///     touches only the running-job penalty-gate suspects and the fast
///     path re-emits the previous assignments without any search.
///   * `dirty1`  — ~1% of the queued jobs are perturbed each iteration
///     (their `queued_since` flips, invalidating the fingerprint) and
///     named in the delta, so only those re-classify and re-search.
///   * `dirty10` — same with ~10% perturbed.
fn bench_incremental_round(c: &mut Criterion) {
    const NODES: usize = 8;
    const RUNNERS: u64 = 64; // 8 per node: tiles every GPU, CPU and byte
    const NOW: f64 = 50_000.0;

    let oracle = TestbedOracle::new(0);
    let registry =
        Arc::new(ModelRegistry::from_oracle(&oracle, &[ModelSpec::roberta_large()]).unwrap());
    registry.warm_curves(64, |s| s.default_batch);
    let model = ModelSpec::roberta_large();
    let fitted = registry.model(&model.name).expect("roberta fitted");
    let batch = model.default_batch;

    // Equal norms (same model, batch and baseline) mean no steal ever
    // clears the shrink hysteresis, and with nothing free to grab the
    // round is provably a no-op — exactly the case the dirty tracker
    // certifies. Runners are nearly finished so amortization keeps the
    // status quo even where a better plan exists.
    let steady_jobs = |n: usize| -> Vec<JobSnapshot> {
        (0..n as u64)
            .map(|id| {
                let res = Resources::new(1, 12, 200.0);
                let plan = ExecutionPlan::dp(1);
                if id < RUNNERS {
                    let alloc = Allocation::on_node(id as usize % NODES, res);
                    let throughput = fitted
                        .throughput(&plan, batch, &alloc.to_placement())
                        .expect("dp(1) feasible for roberta");
                    JobSnapshot {
                        spec: Arc::new(JobSpec {
                            id,
                            global_batch: batch,
                            submit_time: 0.0,
                            target_batches: 1000,
                            requested: res,
                            initial_plan: plan,
                            class: JobClass::Guaranteed,
                            tenant: TenantId::default(),
                            model: model.clone(),
                        }),
                        status: JobStatus::Running {
                            allocation: alloc,
                            plan,
                            throughput,
                            resume_at: 0.0,
                        },
                        remaining_batches: 50.0,
                        queued_since: 0.0,
                        runtime: NOW,
                        reconfig_count: 0,
                        baseline_throughput: Some(throughput),
                    }
                } else {
                    JobSnapshot {
                        spec: Arc::new(JobSpec {
                            id,
                            global_batch: batch,
                            submit_time: 0.0,
                            target_batches: 1000,
                            requested: res,
                            initial_plan: plan,
                            class: JobClass::BestEffort,
                            tenant: TenantId::default(),
                            model: model.clone(),
                        }),
                        status: JobStatus::Queued,
                        remaining_batches: 1000.0,
                        queued_since: 0.0,
                        runtime: 0.0,
                        reconfig_count: 0,
                        baseline_throughput: None,
                    }
                }
            })
            .collect()
    };
    let scheduler = |incremental: bool| {
        RubickScheduler::with_config(
            Arc::clone(&registry),
            RubickConfig {
                incremental,
                ..RubickConfig::default()
            },
        )
    };
    let cluster = Cluster::new(NODES, NodeShape::a800());

    // The knob must not change decisions: incremental output (cold and
    // steady-state) matches a full re-plan before anything is timed.
    {
        let snaps = steady_jobs(1024);
        let mut inc = scheduler(true);
        let mut full = scheduler(false);
        let cold = inc.schedule(NOW, &snaps, &cluster, &[]);
        let warm = inc.schedule(NOW, &snaps, &cluster, &[]);
        let reference = full.schedule(NOW, &snaps, &cluster, &[]);
        assert_eq!(cold, reference, "incremental cold round diverges");
        assert_eq!(warm, reference, "incremental fast path diverges");
        let stats = inc.last_round_stats().expect("incremental stats");
        assert_eq!(stats.searched, 0, "steady-state round must skip the search");
        // Delta-fed quiet round: an empty engine delta certifies the queue
        // untouched, so classification probes only the running jobs (their
        // penalty gate evolves with runtime and is always rechecked).
        inc.notify_jobs(&JobDelta::default());
        let quiet = inc.schedule(NOW, &snaps, &cluster, &[]);
        assert_eq!(quiet, reference, "delta-fed quiet round diverges");
        let stats = inc.last_round_stats().expect("delta stats");
        assert_eq!(
            stats.classified, RUNNERS,
            "delta-fed quiet round must classify O(delta), not O(jobs)"
        );
        // Delta-fed dirty round: a perturbed job named in the delta is
        // re-searched, and the output still matches a full re-plan.
        let mut perturbed_snaps = snaps.clone();
        perturbed_snaps[RUNNERS as usize].queued_since = -1.0;
        inc.notify_jobs(&JobDelta {
            changed: vec![RUNNERS],
        });
        let dirty = inc.schedule(NOW, &perturbed_snaps, &cluster, &[]);
        let reference = scheduler(false).schedule(NOW, &perturbed_snaps, &cluster, &[]);
        assert_eq!(dirty, reference, "delta-fed dirty round diverges");
    }

    let smoke = std::env::var("BENCH_SMOKE").as_deref() == Ok("1");
    let sizes: &[usize] = if smoke {
        &[1024]
    } else {
        &[1024, 4096, 16384, 65536, 100_000]
    };
    let mut group = c.benchmark_group("policy/incremental_round");
    group.sample_size(10);
    for &jobs in sizes {
        group.bench_with_input(BenchmarkId::new("full", jobs), &jobs, |b, &n| {
            let snaps = steady_jobs(n);
            let mut sched = scheduler(false);
            b.iter(|| black_box(sched.schedule(NOW, &snaps, &cluster, &[])))
        });
        group.bench_with_input(BenchmarkId::new("clean", jobs), &jobs, |b, &n| {
            let snaps = steady_jobs(n);
            let mut sched = scheduler(true);
            sched.schedule(NOW, &snaps, &cluster, &[]); // warm the tracker
            b.iter(|| {
                // The engine reports an empty inter-round delta, as it
                // does between rounds where nothing arrived or finished.
                sched.notify_jobs(&JobDelta::default());
                black_box(sched.schedule(NOW, &snaps, &cluster, &[]))
            })
        });
        for (variant, step) in [("dirty1", 100usize), ("dirty10", 10)] {
            group.bench_with_input(BenchmarkId::new(variant, jobs), &jobs, |b, &n| {
                let mut snaps = steady_jobs(n);
                let mut sched = scheduler(true);
                sched.schedule(NOW, &snaps, &cluster, &[]); // warm the tracker
                let perturbed: Vec<usize> = (RUNNERS as usize..n).step_by(step).collect();
                let delta = JobDelta {
                    changed: perturbed.iter().map(|&i| i as u64).collect(),
                };
                let mut flip = false;
                b.iter(|| {
                    // Invalidate the named queue fingerprints; the jobs
                    // stay unplaceable, so only their searches re-run.
                    flip = !flip;
                    let since = if flip { -1.0 } else { 0.0 };
                    for &i in &perturbed {
                        snaps[i].queued_since = since;
                    }
                    sched.notify_jobs(&delta);
                    black_box(sched.schedule(NOW, &snaps, &cluster, &[]))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_round,
    bench_all_policies,
    bench_incremental_round
);
criterion_main!(benches);
