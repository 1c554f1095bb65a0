//! Equivalence suite for incremental dirty-set rounds.
//!
//! [`RubickConfig::incremental`] must be a pure performance knob: for ANY
//! job mix, a round planned incrementally (clean jobs skipped under the
//! tracker's certificates) must produce exactly the same assignments as a
//! full re-plan, and a whole simulation — including scripted node
//! failures — must produce a byte-identical [`SimReport`] and event
//! stream (the decision trail folds from the stream, so stream equality
//! subsumes trail equality).
//!
//! Each property runs two schedulers differing only in the knob, over
//! *mirrored* registries (equal-seed oracles fed identical inputs): a
//! shared registry would let the first run's online refits leak into the
//! second run's predictions and mask (or fake) divergence.

use proptest::prelude::*;
use rubick_chaos::{ChaosConfig, FaultPlan};
use rubick_core::rubick::RubickConfig;
use rubick_core::{ModelRegistry, RubickScheduler};
use rubick_model::prelude::*;
use rubick_obs::VecSink;
use rubick_sim::cluster::{Allocation, Cluster};
use rubick_sim::engine::{Engine, EngineConfig};
use rubick_sim::job::{JobClass, JobSpec, JobStatus};
use rubick_sim::scheduler::{
    Assignment, ClusterDelta, JobDelta, JobSnapshot, RoundStats, Scheduler,
};
use rubick_sim::tenant::{Tenant, TenantId};
use rubick_testbed::TestbedOracle;
use std::sync::{Arc, OnceLock};

const ORACLE_SEED: u64 = 77;

/// A pair of independently built but identical registries (see the
/// module docs for why sharing one would mask divergence).
fn registries() -> (Arc<ModelRegistry>, Arc<ModelRegistry>) {
    static REGS: OnceLock<(Arc<ModelRegistry>, Arc<ModelRegistry>)> = OnceLock::new();
    let (a, b) = REGS.get_or_init(|| {
        let build = || {
            let oracle = TestbedOracle::new(ORACLE_SEED);
            Arc::new(ModelRegistry::from_oracle(&oracle, &ModelSpec::zoo()).unwrap())
        };
        (build(), build())
    });
    (Arc::clone(a), Arc::clone(b))
}

fn job_snapshot(
    id: u64,
    model: ModelSpec,
    gpus: u32,
    class: JobClass,
    queued_since: f64,
) -> Option<JobSnapshot> {
    let plan = enumerate_plans(
        &model,
        gpus,
        model.default_batch,
        &NodeShape::a800(),
        &ClusterEnv::a800(),
    )
    .into_iter()
    .next()?;
    Some(JobSnapshot {
        spec: Arc::new(JobSpec {
            id,
            global_batch: model.default_batch,
            submit_time: queued_since,
            target_batches: 1000,
            requested: Resources::new(gpus, gpus * 6, gpus as f64 * 100.0),
            initial_plan: plan,
            class,
            tenant: if class == JobClass::Guaranteed {
                TenantId::new("tenant-a")
            } else {
                TenantId::new("tenant-b")
            },
            model,
        }),
        status: JobStatus::Queued,
        remaining_batches: 1000.0,
        queued_since,
        runtime: 0.0,
        reconfig_count: 0,
        baseline_throughput: None,
    })
}

/// Arbitrary queued job mixes.
fn any_jobs() -> impl Strategy<Value = Vec<JobSnapshot>> {
    prop::collection::vec((0usize..7, 0u32..3, prop::bool::ANY, 0.0f64..1000.0), 1..36).prop_map(
        |raw| {
            let zoo = ModelSpec::zoo();
            raw.into_iter()
                .enumerate()
                .filter_map(|(i, (m, gp, guaranteed, since))| {
                    let model = zoo[m].clone();
                    let gpus = (1u32 << gp).max(if model.params >= 2.0e10 {
                        16
                    } else if model.params >= 5.0e9 {
                        8
                    } else {
                        1
                    });
                    job_snapshot(
                        i as u64,
                        model,
                        gpus,
                        if guaranteed {
                            JobClass::Guaranteed
                        } else {
                            JobClass::BestEffort
                        },
                        since,
                    )
                })
                .collect()
        },
    )
}

fn scheduler_with(registry: Arc<ModelRegistry>, incremental: bool) -> RubickScheduler {
    RubickScheduler::with_config(
        registry,
        RubickConfig {
            incremental,
            ..RubickConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Two consecutive rounds over the same snapshot, any job mix: the
    /// incremental scheduler matches the full re-plan on both. The second
    /// round exercises the classifier with real history — jobs the first
    /// round admitted are dirty (emitted-but-still-queued), the rest are
    /// clean and skip.
    #[test]
    fn repeated_rounds_match_full_replanning(jobs in any_jobs()) {
        let (reg_inc, reg_full) = registries();
        let cluster = Cluster::a800_testbed();
        let tenants = Tenant::paper_mt_pair();
        let mut inc = scheduler_with(reg_inc, true);
        let mut full = scheduler_with(reg_full, false);
        for round in 0..2 {
            let a = inc.schedule(2000.0, &jobs, &cluster, &tenants);
            let b = full.schedule(2000.0, &jobs, &cluster, &tenants);
            prop_assert_eq!(
                &a, &b,
                "assignments diverge in round {} over {} jobs",
                round, jobs.len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Scripted NodeDown/NodeUp chaos: a full simulation with faults
    /// produces the same final report and event stream with incremental
    /// planning on or off. Node transitions hit both the notify hook and
    /// the epoch check, so every eviction/recovery forces a (correct)
    /// full re-plan.
    #[test]
    fn chaos_simulation_is_incremental_invariant(
        fail_at in 1_000u64..4_000,
        recover_at in 6_000u64..11_000,
        node in 1usize..4,
    ) {
        let scenario = format!(
            "restart-penalty-secs 90\nfail {node} {fail_at}\nrecover {node} {recover_at}\n"
        );
        let [a, b] = [true, false].map(|incremental| {
            let oracle = TestbedOracle::new(2025);
            let registry =
                Arc::new(ModelRegistry::from_oracle(&oracle, &ModelSpec::zoo()).unwrap());
            let cfg = ChaosConfig::parse(&scenario).unwrap();
            let plan = FaultPlan::compile(&cfg, 8, EngineConfig::default().max_time).unwrap();
            let mut engine = Engine::new(
                &oracle,
                Box::new(scheduler_with(registry, incremental)),
                Cluster::a800_testbed(),
                vec![],
                EngineConfig::default(),
            )
            .with_chaos(plan);
            let mut sink = VecSink::default();
            let report = engine.run_with_sink(chaos_trace(), &mut sink);
            let stream: Vec<String> = sink.events.iter().map(|e| e.to_jsonl()).collect();
            (report, stream)
        });
        prop_assert_eq!(a.0, b.0, "SimReport diverges under chaos");
        prop_assert_eq!(a.1, b.1, "event stream diverges under chaos");
    }
}

/// Forwards every engine callback to the wrapped scheduler EXCEPT
/// [`Scheduler::notify_jobs`], which it drops on alternate rounds.
///
/// Rounds whose delta arrives classify O(delta); rounds whose delta was
/// dropped find no pending delta and fall back to full fingerprint
/// classification. Interleaving the two paths mid-simulation is sound
/// because `record()` refreshes every stored fingerprint after each
/// round, so a dropped delta's changes are re-discovered by the very
/// fallback it forces — the contract the delta-equivalence proptest
/// below pins end to end.
struct FlakyDelta {
    inner: RubickScheduler,
    calls: u64,
}

impl Scheduler for FlakyDelta {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn notify(&mut self, delta: &ClusterDelta) {
        self.inner.notify(delta);
    }

    fn notify_jobs(&mut self, delta: &JobDelta) {
        self.calls += 1;
        if self.calls % 2 == 1 {
            self.inner.notify_jobs(delta);
        }
    }

    fn last_round_stats(&self) -> Option<RoundStats> {
        self.inner.last_round_stats()
    }

    fn schedule(
        &mut self,
        now: f64,
        jobs: &[JobSnapshot],
        cluster: &Cluster,
        tenants: &[Tenant],
    ) -> Vec<Assignment> {
        self.inner.schedule(now, jobs, cluster, tenants)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Interleaved delta-fed and fingerprint-fallback rounds under
    /// scripted chaos: a simulation whose scheduler receives every
    /// delta, one that receives only every other delta, and one that
    /// re-plans everything must produce byte-identical reports and
    /// event streams. This is the strongest form of the delta contract:
    /// deltas (and their absence) are pure performance hints.
    #[test]
    fn interleaved_delta_and_fallback_rounds_are_equivalent(
        fail_at in 1_000u64..4_000,
        recover_at in 6_000u64..11_000,
        node in 1usize..4,
    ) {
        let scenario = format!(
            "restart-penalty-secs 90\nfail {node} {fail_at}\nrecover {node} {recover_at}\n"
        );
        let run = |scheduler: Box<dyn Scheduler>| {
            let oracle = TestbedOracle::new(2025);
            let cfg = ChaosConfig::parse(&scenario).unwrap();
            let plan = FaultPlan::compile(&cfg, 8, EngineConfig::default().max_time).unwrap();
            let mut engine = Engine::new(
                &oracle,
                scheduler,
                Cluster::a800_testbed(),
                vec![],
                EngineConfig::default(),
            )
            .with_chaos(plan);
            let mut sink = VecSink::default();
            let report = engine.run_with_sink(chaos_trace(), &mut sink);
            let stream: Vec<String> = sink.events.iter().map(|e| e.to_jsonl()).collect();
            (report, stream)
        };
        let fresh_registry = || {
            let oracle = TestbedOracle::new(2025);
            Arc::new(ModelRegistry::from_oracle(&oracle, &ModelSpec::zoo()).unwrap())
        };
        let delta_fed = run(Box::new(scheduler_with(fresh_registry(), true)));
        let flaky = run(Box::new(FlakyDelta {
            inner: scheduler_with(fresh_registry(), true),
            calls: 0,
        }));
        let full = run(Box::new(scheduler_with(fresh_registry(), false)));
        prop_assert_eq!(&delta_fed.0, &full.0, "delta-fed SimReport diverges");
        prop_assert_eq!(&delta_fed.1, &full.1, "delta-fed event stream diverges");
        prop_assert_eq!(&flaky.0, &full.0, "interleaved SimReport diverges");
        prop_assert_eq!(&flaky.1, &full.1, "interleaved event stream diverges");
    }
}

fn chaos_trace() -> Vec<JobSpec> {
    let oracle = TestbedOracle::new(2025);
    rubick_trace::generate_base(
        &rubick_trace::TraceConfig {
            base_jobs: 10,
            duration_hours: 1.0,
            ..rubick_trace::TraceConfig::default()
        },
        &oracle,
    )
}

/// End-to-end, fault-free: byte-identical `SimReport` *and* event stream
/// (the decision trail is a fold of the stream) with incremental on/off.
#[test]
fn full_simulation_reports_and_streams_identical() {
    let specs: Vec<JobSpec> = {
        let zoo = ModelSpec::zoo();
        (0..24u64)
            .filter_map(|i| {
                let model = zoo[i as usize % zoo.len()].clone();
                let gpus = [1u32, 2, 4, 8][i as usize % 4].max(if model.params >= 2.0e10 {
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
                    id: i,
                    global_batch: model.default_batch,
                    submit_time: (i as f64) * 120.0,
                    target_batches: 400,
                    requested: Resources::new(gpus, gpus * 6, gpus as f64 * 100.0),
                    initial_plan: plan,
                    class: if i % 3 == 0 {
                        JobClass::BestEffort
                    } else {
                        JobClass::Guaranteed
                    },
                    tenant: TenantId::default(),
                    model,
                })
            })
            .collect()
    };

    let run = |incremental: bool| {
        let oracle = TestbedOracle::new(ORACLE_SEED);
        let registry = Arc::new(ModelRegistry::from_oracle(&oracle, &ModelSpec::zoo()).unwrap());
        let mut engine = Engine::new(
            &oracle,
            Box::new(scheduler_with(registry, incremental)),
            Cluster::a800_testbed(),
            vec![],
            EngineConfig::default(),
        );
        let mut sink = VecSink::default();
        let report = engine.run_with_sink(specs.clone(), &mut sink);
        let stream: Vec<String> = sink.events.iter().map(|e| e.to_jsonl()).collect();
        (report, stream)
    };

    let (inc_report, inc_stream) = run(true);
    let (full_report, full_stream) = run(false);
    assert_eq!(inc_report, full_report, "SimReport diverges");
    assert_eq!(inc_stream, full_stream, "event stream diverges");
    assert!(
        !inc_report.jobs.is_empty(),
        "degenerate run: nothing finished"
    );
}

/// A steady cluster (every GPU, CPU and byte tiled by equal-norm running
/// jobs) settles into the fast path: the second identical round re-emits
/// every plan verbatim without invoking the plan search at all.
#[test]
fn clean_round_reuses_plans_without_search() {
    let oracle = TestbedOracle::new(ORACLE_SEED);
    let registry = Arc::new(ModelRegistry::from_oracle(&oracle, &ModelSpec::zoo()).unwrap());
    let cluster = Cluster::new(1, NodeShape::a800());
    let model = ModelSpec::roberta_large();
    let fitted = registry.model(&model.name).expect("zoo model fitted");
    let batch = model.default_batch;

    // Eight 1-GPU runners tile the node exactly (8 GPUs, 96 CPUs,
    // 1600 GiB): nothing is free to grab, and equal norms mean no steal
    // ever clears the shrink hysteresis — the round is provably a no-op.
    let jobs: Vec<JobSnapshot> = (0..8u64)
        .map(|id| {
            let alloc = Allocation::on_node(0, Resources::new(1, 12, 200.0));
            let plan = ExecutionPlan::dp(1);
            let throughput = fitted
                .throughput(&plan, batch, &alloc.to_placement())
                .expect("dp(1) feasible for roberta");
            JobSnapshot {
                spec: Arc::new(JobSpec {
                    id,
                    model: model.clone(),
                    global_batch: batch,
                    submit_time: 0.0,
                    target_batches: 1000,
                    requested: Resources::new(1, 12, 200.0),
                    initial_plan: plan,
                    class: JobClass::Guaranteed,
                    tenant: TenantId::default(),
                }),
                status: JobStatus::Running {
                    allocation: alloc,
                    plan,
                    throughput,
                    resume_at: 0.0,
                },
                // Close to done: any reconfiguration's predicted saving is
                // below the amortization bar, so the search keeps the
                // status quo even if a better plan exists.
                remaining_batches: 50.0,
                queued_since: 0.0,
                runtime: 50_000.0,
                reconfig_count: 0,
                baseline_throughput: Some(throughput),
            }
        })
        .collect();

    let mut inc = scheduler_with(Arc::clone(&registry), true);
    let first = inc.schedule(50_000.0, &jobs, &cluster, &[]);
    assert_eq!(first.len(), 8, "all runners kept");
    for (a, snap) in first.iter().zip(&jobs) {
        assert_eq!(Some(&a.allocation), snap.allocation(), "verbatim keep");
        assert_eq!(Some(&a.plan), snap.plan(), "verbatim plan");
    }
    let stats = inc.last_round_stats().expect("incremental stats");
    assert_eq!(stats.dirty, 8, "no history: first round is all dirty");
    assert_eq!(stats.searched, 8);

    // Idle round: nothing changed, so no plan search runs and every
    // running job's decision is reused.
    let second = inc.schedule(50_060.0, &jobs, &cluster, &[]);
    assert_eq!(first, second, "fast path re-emits the same assignments");
    let stats = inc.last_round_stats().expect("incremental stats");
    assert_eq!(stats.searched, 0, "clean round must not invoke the search");
    assert_eq!(stats.dirty, 0);
    assert_eq!(stats.clean, 8);
    assert_eq!(stats.reused, 8);

    // And a full re-plan agrees with the skipped result.
    let mut full = scheduler_with(registry, false);
    let full_out = full.schedule(50_000.0, &jobs, &cluster, &[]);
    assert_eq!(full_out, first, "incremental output diverges from full");
    assert!(
        full.last_round_stats().is_none(),
        "full rounds report no stats"
    );
}

/// Quiet rounds classify O(delta), not O(jobs): with an empty engine
/// delta the tracker fingerprints only the running jobs (whose penalty
/// gate evolves with runtime and is always rechecked), while the same
/// round without a delta falls back to fingerprinting the whole mix.
/// Both paths re-emit identical assignments without a single search.
#[test]
fn quiet_round_classification_is_o_delta() {
    const RUNNERS: u64 = 8;
    const QUEUED: u64 = 24;
    const NOW: f64 = 50_000.0;

    let oracle = TestbedOracle::new(ORACLE_SEED);
    let registry = Arc::new(ModelRegistry::from_oracle(&oracle, &ModelSpec::zoo()).unwrap());
    let cluster = Cluster::new(1, NodeShape::a800());
    let model = ModelSpec::roberta_large();
    let fitted = registry.model(&model.name).expect("zoo model fitted");
    let batch = model.default_batch;

    // Eight equal-norm runners tile the node (see
    // `clean_round_reuses_plans_without_search`); the queued tail can
    // never be admitted, so after the first round the cluster is steady.
    let jobs: Vec<JobSnapshot> = (0..RUNNERS + QUEUED)
        .map(|id| {
            let res = Resources::new(1, 12, 200.0);
            let plan = ExecutionPlan::dp(1);
            if id < RUNNERS {
                let alloc = Allocation::on_node(0, res);
                let throughput = fitted
                    .throughput(&plan, batch, &alloc.to_placement())
                    .expect("dp(1) feasible for roberta");
                JobSnapshot {
                    spec: Arc::new(JobSpec {
                        id,
                        model: model.clone(),
                        global_batch: batch,
                        submit_time: 0.0,
                        target_batches: 1000,
                        requested: res,
                        initial_plan: plan,
                        class: JobClass::Guaranteed,
                        tenant: TenantId::default(),
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
                        model: model.clone(),
                        global_batch: batch,
                        submit_time: 0.0,
                        target_batches: 1000,
                        requested: res,
                        initial_plan: plan,
                        class: JobClass::BestEffort,
                        tenant: TenantId::default(),
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
        .collect();

    let mut inc = scheduler_with(Arc::clone(&registry), true);
    let first = inc.schedule(NOW, &jobs, &cluster, &[]);

    // Quiet round WITHOUT a delta: fingerprint fallback touches the
    // whole mix.
    let fallback = inc.schedule(NOW, &jobs, &cluster, &[]);
    assert_eq!(first, fallback, "fallback quiet round diverges");
    let stats = inc.last_round_stats().expect("fallback stats");
    assert_eq!(stats.searched, 0, "quiet round must not search");
    assert_eq!(
        stats.classified,
        RUNNERS + QUEUED,
        "no delta: fallback fingerprints every job"
    );

    // Quiet round WITH an empty delta: only the running jobs are
    // fingerprinted, independent of how long the queue is.
    inc.notify_jobs(&JobDelta::default());
    let quiet = inc.schedule(NOW, &jobs, &cluster, &[]);
    assert_eq!(first, quiet, "delta-fed quiet round diverges");
    let stats = inc.last_round_stats().expect("delta stats");
    assert_eq!(stats.searched, 0, "quiet round must not search");
    assert_eq!(
        stats.classified, RUNNERS,
        "empty delta: classification probes only running suspects"
    );

    // A named delta re-classifies exactly the named jobs on top of the
    // running suspects, and the (unchanged) job stays clean.
    inc.notify_jobs(&JobDelta {
        changed: vec![RUNNERS + 1],
        removed: vec![],
    });
    let named = inc.schedule(NOW, &jobs, &cluster, &[]);
    assert_eq!(first, named, "named-delta round diverges");
    let stats = inc.last_round_stats().expect("named-delta stats");
    assert_eq!(stats.searched, 0, "unchanged named job must stay clean");
    assert_eq!(
        stats.classified,
        RUNNERS + 1,
        "named delta adds exactly one probe"
    );
}
