//! Property-based tests for the cluster simulator: accounting invariants
//! that must survive arbitrary workloads and allocation patterns.

use proptest::prelude::*;
use rubick_model::{ExecutionPlan, ModelSpec, NodeShape, Resources};
use rubick_obs::{SimEvent, VecSink};
use rubick_sim::cluster::{Allocation, Cluster};
use rubick_sim::engine::{Engine, EngineConfig, StepOutcome};
use rubick_sim::job::{JobClass, JobSpec};
use rubick_sim::scheduler::{Assignment, JobSnapshot, Scheduler};
use rubick_sim::tenant::{Tenant, TenantId};
use rubick_testbed::TestbedOracle;
use std::collections::BTreeSet;

fn any_resources() -> impl Strategy<Value = Resources> {
    (0u32..9, 0u32..97, 0.0f64..1600.0).prop_map(|(g, c, m)| Resources::new(g, c, m))
}

proptest! {
    /// Allocate/release round-trips restore exactly the free capacity, for
    /// any sequence of feasible allocations.
    #[test]
    fn cluster_accounting_roundtrip(allocs in prop::collection::vec(
        (0usize..4, any_resources()), 1..20
    )) {
        let mut cluster = Cluster::new(4, NodeShape::a800());
        let capacity = cluster.total_capacity();
        let mut applied: Vec<Allocation> = Vec::new();
        for (node, res) in allocs {
            let alloc = Allocation::on_node(node, res);
            if cluster.allocate(&alloc).is_ok() {
                applied.push(alloc);
            }
            // Free never exceeds capacity and never goes negative (u32/f64
            // clamping inside the cluster).
            let free = cluster.free_total();
            prop_assert!(capacity.dominates(&free));
        }
        for alloc in applied.iter().rev() {
            cluster.release(alloc);
        }
        prop_assert_eq!(cluster.free_total(), capacity);
    }

    /// Failed allocations are atomic: a rejected multi-node allocation
    /// leaves the cluster untouched.
    #[test]
    fn failed_allocations_are_atomic(
        ok_res in any_resources(),
        huge_gpus in 9u32..64,
    ) {
        let mut cluster = Cluster::new(2, NodeShape::a800());
        let before = cluster.free_total();
        let alloc = Allocation {
            per_node: vec![
                (0, ok_res),
                (1, Resources::new(huge_gpus, 0, 0.0)), // always too big
            ],
        };
        prop_assert!(cluster.allocate(&alloc).is_err());
        prop_assert_eq!(cluster.free_total(), before);
    }

    /// Adding grants to an allocation adds totals and never duplicates node entries.
    #[test]
    fn allocation_merge_totals(parts in prop::collection::vec(
        (0usize..6, any_resources()), 0..12
    )) {
        let mut merged = Allocation::empty();
        let mut expect = Resources::zero();
        for (node, res) in parts {
            merged.add(node, res);
            expect += res;
        }
        let total = merged.total();
        prop_assert_eq!(total.gpus, expect.gpus);
        prop_assert_eq!(total.cpus, expect.cpus);
        prop_assert!((total.mem_gb - expect.mem_gb).abs() < 1e-6);
        let mut nodes: Vec<usize> = merged.per_node.iter().map(|(n, _)| *n).collect();
        nodes.sort_unstable();
        let len = nodes.len();
        nodes.dedup();
        prop_assert_eq!(nodes.len(), len, "duplicate node entries after add");
    }
}

/// A simple feasible-gang scheduler used to drive the engine in property
/// tests. It checks that the engine hands it the jobs sorted by strictly
/// increasing id.
struct TestGang;

impl Scheduler for TestGang {
    fn name(&self) -> &str {
        "test-gang"
    }

    fn schedule(
        &mut self,
        _now: f64,
        jobs: &[JobSnapshot],
        cluster: &Cluster,
        _tenants: &[Tenant],
    ) -> Vec<Assignment> {
        assert!(
            jobs.windows(2).all(|w| w[0].id() < w[1].id()),
            "snapshot ids not strictly increasing: {:?}",
            jobs.iter().map(JobSnapshot::id).collect::<Vec<_>>()
        );
        let mut free: Vec<Resources> = cluster.nodes().iter().map(|n| n.free).collect();
        let mut out = Vec::new();
        for job in jobs {
            if let rubick_sim::job::JobStatus::Running {
                allocation, plan, ..
            } = &job.status
            {
                out.push(Assignment {
                    job: job.id(),
                    allocation: allocation.clone(),
                    plan: *plan,
                });
                continue;
            }
            let want = job.spec.requested;
            if let Some((node, f)) = free
                .iter_mut()
                .enumerate()
                .find(|(_, f)| f.dominates(&want))
            {
                *f -= want;
                out.push(Assignment {
                    job: job.id(),
                    allocation: Allocation::on_node(node, want),
                    plan: job.spec.initial_plan,
                });
            }
        }
        out
    }
}

/// The stepped engine's job bookkeeping against the events seen so far:
/// every submitted job is running, queued or finished, and every accepted
/// id stays known unless a cancel withdrew it before its submit fired.
fn check_bookkeeping(
    engine: &Engine,
    events: &[SimEvent],
    accepted: &[u64],
    cancel_requested: &BTreeSet<u64>,
) -> Result<(), TestCaseError> {
    let submitted: BTreeSet<u64> = events
        .iter()
        .filter_map(|ev| match ev {
            SimEvent::JobSubmitted { job, .. } => Some(*job),
            _ => None,
        })
        .collect();
    prop_assert_eq!(
        engine.running_jobs() + engine.queued_jobs() + engine.finished_jobs(),
        submitted.len()
    );
    for id in accepted {
        if submitted.contains(id) || !cancel_requested.contains(id) {
            prop_assert!(engine.has_job(*id), "job {} forgotten", id);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine invariants under arbitrary workloads with a feasible
    /// scheduler: every job finishes exactly once, time accounting is
    /// consistent, and GPU-hours never exceed cluster capacity × makespan.
    #[test]
    fn engine_accounting_invariants(n in 1usize..12, seed in 0u64..64) {
        let jobs: Vec<JobSpec> = (0..n as u64)
            .map(|i| {
                // Deterministic but varied job mix from the seed.
                let gp = ((seed + i) % 3) as u32;
                let gpus = 1u32 << gp;
                JobSpec {
                    id: i,
                    model: ModelSpec::roberta_large(),
                    global_batch: 64,
                    submit_time: ((seed * 37 + i * 251) % 4000) as f64,
                    target_batches: 50 + ((seed * 13 + i * 97) % 500),
                    requested: Resources::new(gpus, gpus * 4, gpus as f64 * 50.0),
                    initial_plan: ExecutionPlan::dp(gpus),
                    class: JobClass::Guaranteed,
                    tenant: TenantId::default(),
                }
            })
            .collect();
        let oracle = TestbedOracle::new(7);
        let mut engine = Engine::new(
            &oracle,
            Box::new(TestGang),
            Cluster::new(2, NodeShape::a800()),
            vec![],
            EngineConfig::default(),
        );
        let report = engine.run(jobs.clone());
        prop_assert_eq!(report.jobs.len(), n, "unfinished: {:?}", report.unfinished);
        let mut seen: Vec<u64> = report.jobs.iter().map(|r| r.id).collect();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), n, "duplicate completions");
        for r in &report.jobs {
            prop_assert!(r.finish_time >= r.submit_time);
            prop_assert!(r.jct() >= r.runtime - 1e-6, "jct < runtime for {}", r.id);
            prop_assert!(r.first_start.unwrap() >= r.submit_time - 1e-6);
            prop_assert!(r.gpu_seconds >= 0.0);
            prop_assert!(r.avg_throughput > 0.0);
        }
        // Conservation: total GPU-seconds within capacity over the horizon.
        let total_gpu_secs: f64 = report.jobs.iter().map(|r| r.gpu_seconds).sum();
        let capacity_gpu_secs = 16.0 * report.makespan;
        prop_assert!(
            total_gpu_secs <= capacity_gpu_secs + 1e-6,
            "overcommitted: {total_gpu_secs} > {capacity_gpu_secs}"
        );
    }

    /// The engine is deterministic: identical inputs produce identical
    /// reports.
    #[test]
    fn engine_is_deterministic(n in 1usize..6) {
        let jobs: Vec<JobSpec> = (0..n as u64)
            .map(|i| JobSpec {
                id: i,
                model: ModelSpec::roberta_large(),
                global_batch: 64,
                submit_time: i as f64 * 100.0,
                target_batches: 200,
                requested: Resources::new(2, 8, 100.0),
                initial_plan: ExecutionPlan::dp(2),
                class: JobClass::Guaranteed,
                tenant: TenantId::default(),
            })
            .collect();
        let oracle = TestbedOracle::new(3);
        let run = || {
            let mut engine = Engine::new(
                &oracle,
                Box::new(TestGang),
                Cluster::new(2, NodeShape::a800()),
                vec![],
                EngineConfig::default(),
            );
            engine.run(jobs.clone())
        };
        prop_assert_eq!(run(), run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Job bookkeeping of the stepped engine under random submits and
    /// cancels. A cancel may land before the submit fires, while the job
    /// queues, while it runs, or after it finished. At every step each
    /// submitted job is running, queued or finished; every accepted id
    /// stays known; and the drained run leaves nothing running or queued.
    /// One 8-GPU node and 4- or 8-GPU jobs make jobs queue often. Ids are
    /// bit-reversed submit counters, and `TestGang` checks every round's
    /// slice is sorted by id.
    #[test]
    fn stepped_engine_bookkeeping(ops in prop::collection::vec(
        (0u32..4, 0u64..1000, 1000u64..20000, 0usize..64), 1..40,
    )) {
        let oracle = TestbedOracle::new(5);
        let mut engine = Engine::new(
            &oracle,
            Box::new(TestGang),
            Cluster::new(1, NodeShape::a800()),
            vec![],
            EngineConfig::default(),
        );
        let mut sink = VecSink::default();
        let mut accepted: Vec<u64> = Vec::new();
        let mut cancel_requested: BTreeSet<u64> = BTreeSet::new();
        for (kind, delay, batches, pick) in ops {
            match kind {
                0 => {
                    // Ids out of call order, so a submit often lands before
                    // active jobs in the engine's id-sorted table.
                    let id = (accepted.len() as u64).reverse_bits();
                    let gpus = 4u32 << (pick % 2);
                    engine.submit(JobSpec {
                        id,
                        model: ModelSpec::roberta_large(),
                        global_batch: 64,
                        submit_time: engine.now() + delay as f64,
                        target_batches: batches,
                        requested: Resources::new(gpus, gpus * 4, gpus as f64 * 50.0),
                        initial_plan: ExecutionPlan::dp(gpus),
                        class: JobClass::Guaranteed,
                        tenant: TenantId::default(),
                    });
                    accepted.push(id);
                }
                1 if !accepted.is_empty() => {
                    let id = accepted[pick % accepted.len()];
                    engine.cancel(engine.now() + (delay % 400) as f64, id);
                    cancel_requested.insert(id);
                }
                _ => {
                    engine.step(None, &mut sink);
                }
            }
            check_bookkeeping(&engine, &sink.events, &accepted, &cancel_requested)?;
        }
        let outcome = loop {
            match engine.step(None, &mut sink) {
                StepOutcome::Advanced { .. } => {
                    check_bookkeeping(&engine, &sink.events, &accepted, &cancel_requested)?
                }
                other => break other,
            }
        };
        prop_assert_eq!(outcome, StepOutcome::Idle);
        prop_assert_eq!(engine.running_jobs(), 0);
        prop_assert_eq!(engine.queued_jobs(), 0);
    }
}
