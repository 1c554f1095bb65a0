//! Failure injection: the engine must stay sane when the policy misbehaves.
//!
//! A scheduler is untrusted code from the engine's perspective — on the
//! real cluster, a bad assignment manifests as a failed pod launch or a
//! CUDA OOM, not as corrupted bookkeeping. These tests drive the engine
//! with deliberately broken policies and check that accounting invariants
//! hold, failures are counted, and jobs still complete when a sane
//! decision eventually arrives.

use rubick_model::{ExecutionPlan, ModelSpec, NodeShape, Resources};
use rubick_sim::cluster::{Allocation, Cluster};
use rubick_sim::engine::{Engine, EngineConfig};
use rubick_sim::job::{JobClass, JobSpec, JobStatus};
use rubick_sim::scheduler::{Assignment, JobSnapshot, Scheduler};
use rubick_sim::tenant::{Tenant, TenantId};
use rubick_testbed::TestbedOracle;

fn job(id: u64, gpus: u32, batches: u64) -> JobSpec {
    JobSpec {
        id,
        model: ModelSpec::roberta_large(),
        global_batch: 64,
        submit_time: 0.0,
        target_batches: batches,
        requested: Resources::new(gpus, gpus * 4, gpus as f64 * 50.0),
        initial_plan: ExecutionPlan::dp(gpus),
        class: JobClass::Guaranteed,
        tenant: TenantId::default(),
    }
}

fn run(scheduler: Box<dyn Scheduler>, jobs: Vec<JobSpec>) -> rubick_sim::SimReport {
    let oracle = TestbedOracle::new(13);
    let mut engine = Engine::new(
        &oracle,
        scheduler,
        Cluster::new(2, NodeShape::a800()),
        vec![],
        EngineConfig::default(),
    );
    engine.run(jobs)
}

/// Requests more GPUs on node 0 than exist; falls back to a sane gang after
/// `bad_rounds` scheduling rounds.
struct Overcommitter {
    bad_rounds: u32,
    rounds: u32,
}

impl Scheduler for Overcommitter {
    fn name(&self) -> &str {
        "overcommitter"
    }
    fn schedule(
        &mut self,
        _now: f64,
        jobs: &[JobSnapshot],
        cluster: &Cluster,
        _tenants: &[Tenant],
    ) -> Vec<Assignment> {
        self.rounds += 1;
        let mut out = Vec::new();
        let mut free: Vec<Resources> = cluster.nodes().iter().map(|n| n.free).collect();
        for j in jobs {
            if let JobStatus::Running {
                allocation, plan, ..
            } = &j.status
            {
                out.push(Assignment {
                    job: j.id(),
                    allocation: allocation.clone(),
                    plan: *plan,
                });
                continue;
            }
            if self.rounds <= self.bad_rounds {
                // Physically impossible: 4x the node's GPU count.
                out.push(Assignment {
                    job: j.id(),
                    allocation: Allocation::on_node(0, Resources::new(32, 1, 1.0)),
                    plan: j.spec.initial_plan,
                });
            } else if let Some((node, f)) = free
                .iter_mut()
                .enumerate()
                .find(|(_, f)| f.dominates(&j.spec.requested))
            {
                *f -= j.spec.requested;
                out.push(Assignment {
                    job: j.id(),
                    allocation: Allocation::on_node(node, j.spec.requested),
                    plan: j.spec.initial_plan,
                });
            }
        }
        out
    }
}

#[test]
fn overcommitted_assignments_are_rejected_and_counted() {
    let report = run(
        Box::new(Overcommitter {
            bad_rounds: 2,
            rounds: 0,
        }),
        vec![job(1, 4, 200)],
    );
    assert_eq!(
        report.jobs.len(),
        1,
        "job should finish once sane decisions arrive"
    );
    assert!(
        report.infeasible_assignments >= 1,
        "bad rounds must be counted: {}",
        report.infeasible_assignments
    );
}

/// Assigns a plan that OOMs on the oracle (plain DP for a 7B model on one
/// GPU), then recovers with ZeRO-Offload.
struct OomThenRecover {
    attempts: u32,
}

impl Scheduler for OomThenRecover {
    fn name(&self) -> &str {
        "oom-then-recover"
    }
    fn schedule(
        &mut self,
        _now: f64,
        jobs: &[JobSnapshot],
        _cluster: &Cluster,
        _tenants: &[Tenant],
    ) -> Vec<Assignment> {
        let mut out = Vec::new();
        for j in jobs {
            if let JobStatus::Running {
                allocation, plan, ..
            } = &j.status
            {
                out.push(Assignment {
                    job: j.id(),
                    allocation: allocation.clone(),
                    plan: *plan,
                });
                continue;
            }
            self.attempts += 1;
            let plan = if self.attempts <= 2 {
                ExecutionPlan::dp(1) // 7B plain DP: guaranteed OOM
            } else {
                ExecutionPlan::zero_offload(1).with_ga(8)
            };
            out.push(Assignment {
                job: j.id(),
                allocation: Allocation::on_node(0, Resources::new(1, 12, 400.0)),
                plan,
            });
        }
        out
    }
}

#[test]
fn oom_plans_requeue_and_recover() {
    let mut j = job(1, 1, 30);
    j.model = ModelSpec::llama2_7b();
    j.global_batch = 32;
    j.initial_plan = ExecutionPlan::zero_offload(1);
    let report = run(Box::new(OomThenRecover { attempts: 0 }), vec![j]);
    assert_eq!(report.jobs.len(), 1, "unfinished: {:?}", report.unfinished);
    assert!(report.infeasible_assignments >= 2);
}

/// Preempts every running job on every round, restarting it immediately —
/// the worst-case churn policy. Progress must be preserved across the
/// checkpoint cycles and the job must still terminate.
struct Thrasher;

impl Scheduler for Thrasher {
    fn name(&self) -> &str {
        "thrasher"
    }
    fn schedule(
        &mut self,
        _now: f64,
        jobs: &[JobSnapshot],
        _cluster: &Cluster,
        _tenants: &[Tenant],
    ) -> Vec<Assignment> {
        // Alternate each job between node 0 and node 1 so the allocation
        // always differs from the current one (forcing a reconfiguration).
        let mut out = Vec::new();
        for j in jobs {
            let current_node = j
                .allocation()
                .and_then(|a| a.per_node.first().map(|(n, _)| *n))
                .unwrap_or(1);
            let next = 1 - current_node;
            out.push(Assignment {
                job: j.id(),
                allocation: Allocation::on_node(next, j.spec.requested),
                plan: j.spec.initial_plan,
            });
        }
        out
    }
}

#[test]
fn thrashing_scheduler_still_terminates_with_progress_preserved() {
    let report = run(Box::new(Thrasher), vec![job(1, 2, 6000)]);
    assert_eq!(report.jobs.len(), 1, "unfinished: {:?}", report.unfinished);
    let r = &report.jobs[0];
    assert!(
        r.reconfig_count >= 2,
        "thrashing must reconfigure: {}",
        r.reconfig_count
    );
    // Checkpoints preserve progress: total work time is bounded by
    // (batches / min-throughput) + overheads, not multiplied by restarts.
    assert!(r.reconfig_time > 0.0);
    assert!(r.jct() < 6.0 * 3600.0, "jct exploded: {}", r.jct());
}

/// Never schedules anything.
struct Refusenik;

impl Scheduler for Refusenik {
    fn name(&self) -> &str {
        "refusenik"
    }
    fn schedule(
        &mut self,
        _now: f64,
        _jobs: &[JobSnapshot],
        _cluster: &Cluster,
        _tenants: &[Tenant],
    ) -> Vec<Assignment> {
        Vec::new()
    }
}

#[test]
fn refusing_scheduler_reports_unfinished_jobs_without_hanging() {
    let report = run(Box::new(Refusenik), vec![job(1, 2, 100), job(2, 4, 100)]);
    assert!(report.jobs.is_empty());
    let mut unfinished = report.unfinished.clone();
    unfinished.sort_unstable();
    assert_eq!(unfinished, vec![1, 2]);
}

/// Returns assignments for job ids that do not exist, plus duplicates.
struct Hallucinator;

impl Scheduler for Hallucinator {
    fn name(&self) -> &str {
        "hallucinator"
    }
    fn schedule(
        &mut self,
        _now: f64,
        jobs: &[JobSnapshot],
        _cluster: &Cluster,
        _tenants: &[Tenant],
    ) -> Vec<Assignment> {
        let mut out = vec![Assignment {
            job: 9999, // no such job
            allocation: Allocation::on_node(0, Resources::new(8, 8, 8.0)),
            plan: ExecutionPlan::dp(8),
        }];
        for j in jobs {
            // Two disagreeing assignments for the same job: the requested
            // GPUs, then all 8 of node 0. The first one wins.
            for gpus in [j.spec.requested.gpus, 8] {
                out.push(Assignment {
                    job: j.id(),
                    allocation: Allocation::on_node(
                        0,
                        Resources::new(gpus, gpus * 4, gpus as f64 * 50.0),
                    ),
                    plan: ExecutionPlan::dp(gpus),
                });
            }
        }
        out
    }
}

/// Lists the jobs in reverse id order and asks for all 8 GPUs of node 0
/// for every queued one.
struct WholeNodeReversed;

impl Scheduler for WholeNodeReversed {
    fn name(&self) -> &str {
        "whole-node-reversed"
    }
    fn schedule(
        &mut self,
        _now: f64,
        jobs: &[JobSnapshot],
        _cluster: &Cluster,
        _tenants: &[Tenant],
    ) -> Vec<Assignment> {
        jobs.iter()
            .rev()
            .map(|j| match &j.status {
                JobStatus::Running {
                    allocation, plan, ..
                } => Assignment {
                    job: j.id(),
                    allocation: allocation.clone(),
                    plan: *plan,
                },
                JobStatus::Queued => Assignment {
                    job: j.id(),
                    allocation: Allocation::on_node(0, Resources::new(8, 32, 400.0)),
                    plan: ExecutionPlan::dp(8),
                },
            })
            .collect()
    }
}

#[test]
fn unknown_and_duplicate_assignments_are_ignored_gracefully() {
    use rubick_sim::metrics::Decision;
    let report = run(Box::new(Hallucinator), vec![job(1, 2, 150)]);
    assert_eq!(report.jobs.len(), 1, "unfinished: {:?}", report.unfinished);
    // The first of two disagreeing assignments wins, in every round.
    let launched: Vec<(u64, u32)> = report
        .decisions
        .iter()
        .filter_map(|d| match d {
            Decision::Launch { job, gpus, .. } => Some((*job, *gpus)),
            _ => None,
        })
        .collect();
    assert_eq!(launched, vec![(1, 2)]);
    assert!(!report
        .decisions
        .iter()
        .any(|d| matches!(d, Decision::Reconfigure { .. })));

    // Configurations apply in the scheduler's order, not in id order: both
    // jobs want all of node 0, job 2 is listed first and gets it.
    let report = run(
        Box::new(WholeNodeReversed),
        vec![job(1, 8, 150), job(2, 8, 150)],
    );
    assert_eq!(report.jobs.len(), 2, "unfinished: {:?}", report.unfinished);
    match &report.decisions[..2] {
        [Decision::Launch { job: 2, .. }, Decision::Reject { job: 1, reason, .. }] => {
            assert!(reason.contains("overcommitted"), "reason: {reason}")
        }
        other => panic!("expected job 2 launched, job 1 rejected: {other:?}"),
    }
}

/// Launches every queued job with its request and targets every running
/// job with an empty allocation.
struct Emptier;

impl Scheduler for Emptier {
    fn name(&self) -> &str {
        "emptier"
    }
    fn schedule(
        &mut self,
        _now: f64,
        jobs: &[JobSnapshot],
        _cluster: &Cluster,
        _tenants: &[Tenant],
    ) -> Vec<Assignment> {
        jobs.iter()
            .map(|j| Assignment {
                job: j.id(),
                allocation: if j.status.is_running() {
                    Allocation::empty()
                } else {
                    Allocation::on_node(0, j.spec.requested)
                },
                plan: j.spec.initial_plan,
            })
            .collect()
    }
}

/// An empty target is no target: a running job it names is preempted,
/// with the event that says so.
#[test]
fn empty_target_preempts_with_an_event() {
    use rubick_obs::{DecisionKind, SimEvent, VecSink};
    let oracle = TestbedOracle::new(13);
    let mut engine = Engine::new(
        &oracle,
        Box::new(Emptier),
        Cluster::new(2, NodeShape::a800()),
        vec![],
        EngineConfig::default(),
    );
    let mut sink = VecSink::default();
    engine.submit(job(1, 4, 100_000));
    engine.step(None, &mut sink); // submit: launch on 4 GPUs
    assert_eq!(engine.running_jobs(), 1);
    engine.step(None, &mut sink); // heartbeat: empty target
    assert_eq!(engine.running_jobs(), 0);
    assert_eq!(engine.queued_jobs(), 1);
    let last = sink.events.iter().rev().find(|ev| {
        matches!(
            ev,
            SimEvent::DecisionApplied { job: 1, .. } | SimEvent::Reconfigured { job: 1, .. }
        )
    });
    assert!(
        matches!(
            last,
            Some(SimEvent::DecisionApplied {
                kind: DecisionKind::Preempt,
                gpus: 4,
                ..
            })
        ),
        "last word on job 1: {last:?}"
    );
}

/// A job whose requested configuration cannot even be measured (OOM at
/// admission): the engine must record no baseline and proceed.
#[test]
fn baseline_measurement_failure_is_tolerated() {
    let mut j = job(1, 1, 50);
    j.model = ModelSpec::llama_30b(); // infeasible everywhere below ~10 GPUs
    j.initial_plan = ExecutionPlan::dp(1);
    j.global_batch = 64;
    // A scheduler that places it on 16 GPUs with a valid 3D plan.
    struct Fixer;
    impl Scheduler for Fixer {
        fn name(&self) -> &str {
            "fixer"
        }
        fn schedule(
            &mut self,
            _now: f64,
            jobs: &[JobSnapshot],
            cluster: &Cluster,
            _tenants: &[Tenant],
        ) -> Vec<Assignment> {
            let mut out = Vec::new();
            for j in jobs {
                if let JobStatus::Running {
                    allocation, plan, ..
                } = &j.status
                {
                    out.push(Assignment {
                        job: j.id(),
                        allocation: allocation.clone(),
                        plan: *plan,
                    });
                    continue;
                }
                assert!(
                    j.baseline_throughput.is_none(),
                    "infeasible request must yield no baseline"
                );
                let mut alloc = Allocation::on_node(0, Resources::new(8, 48, 400.0));
                alloc.add(1, Resources::new(8, 48, 400.0));
                let _ = cluster;
                out.push(Assignment {
                    job: j.id(),
                    allocation: alloc,
                    plan: ExecutionPlan::three_d(1, 4, 4, 8).with_gc(),
                });
            }
            out
        }
    }
    let report = run(Box::new(Fixer), vec![j]);
    assert_eq!(report.jobs.len(), 1, "unfinished: {:?}", report.unfinished);
    assert!(report.jobs[0].baseline_throughput.is_none());
    assert_eq!(report.jobs[0].sla_met(), None);
}

#[test]
fn decision_log_records_lifecycle_in_order() {
    use rubick_sim::metrics::Decision;
    let report = run(Box::new(Thrasher), vec![job(1, 2, 6000)]);
    let decisions = &report.decisions;
    assert!(!decisions.is_empty());
    // Chronological order.
    for w in decisions.windows(2) {
        assert!(w[0].at() <= w[1].at() + 1e-9);
    }
    // Starts with a launch, ends with the finish, reconfigs in between.
    assert!(matches!(decisions.first(), Some(Decision::Launch { .. })));
    assert!(matches!(decisions.last(), Some(Decision::Finish { .. })));
    assert!(decisions
        .iter()
        .any(|d| matches!(d, Decision::Reconfigure { .. })));
}

#[test]
fn decision_log_records_rejections_with_reasons() {
    use rubick_sim::metrics::Decision;
    let report = run(
        Box::new(Overcommitter {
            bad_rounds: 1,
            rounds: 0,
        }),
        vec![job(1, 4, 100)],
    );
    let reject = report
        .decisions
        .iter()
        .find(|d| matches!(d, Decision::Reject { .. }))
        .expect("a rejection was logged");
    if let Decision::Reject { reason, .. } = reject {
        assert!(reason.contains("overcommitted"), "reason: {reason}");
    }
}
