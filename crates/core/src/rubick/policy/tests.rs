//! Scheduler-level tests of Rubick's rounds, through `schedule()` or the engine.

use crate::common::testing::{job, snapshot, RESOLVED};
use crate::common::{JobCache, JobIndex};
use crate::registry::ModelRegistry;
use crate::rubick::certs::REACH_SKIPS;
use crate::rubick::ctx::{build_job_parts, Ctx};
use crate::rubick::grow::SHRINK_HYSTERESIS;
use crate::rubick::{RubickConfig, RubickScheduler};
use rubick_model::{
    BestPlanMemo, ExecutionPlan, MemoryEstimator, MemoryMode, ModelSpec, NodeShape, PerfParams,
    Resources, ThroughputModel,
};
use rubick_sim::cluster::{Allocation, Cluster};
use rubick_sim::engine::{Engine, EngineConfig};
use rubick_sim::job::{JobClass, JobSpec, JobStatus};
use rubick_sim::scheduler::{Assignment, JobSnapshot, Scheduler};
use rubick_sim::tenant::{Tenant, TenantId};
use rubick_sim::SimReport;
use rubick_testbed::TestbedOracle;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

fn registry(oracle: &TestbedOracle, specs: &[ModelSpec]) -> Arc<ModelRegistry> {
    Arc::new(ModelRegistry::from_oracle(oracle, specs).unwrap())
}

fn run(
    oracle: &TestbedOracle,
    registry: Arc<ModelRegistry>,
    nodes: usize,
    tenants: Vec<Tenant>,
    jobs: Vec<JobSpec>,
) -> SimReport {
    let mut engine = Engine::new(
        oracle,
        Box::new(RubickScheduler::new(registry)),
        Cluster::new(nodes, NodeShape::a800()),
        tenants,
        EngineConfig::default(),
    );
    engine.run(jobs)
}

#[test]
fn single_job_expands_beyond_request_on_idle_cluster() {
    let oracle = TestbedOracle::new(21);
    let reg = registry(&oracle, &[ModelSpec::roberta_large()]);
    let j = job(1, ModelSpec::roberta_large(), 2, ExecutionPlan::dp(2), 3000);
    let report = run(&oracle, reg, 1, vec![], vec![j]);
    assert_eq!(report.jobs.len(), 1, "unfinished: {:?}", report.unfinished);
    let r = &report.jobs[0];
    assert!(
        r.avg_throughput > r.baseline_throughput.unwrap() * 1.2,
        "rubick should expand an idle cluster: {} vs {}",
        r.avg_throughput,
        r.baseline_throughput.unwrap()
    );
}

#[test]
fn guaranteed_jobs_meet_sla_under_contention() {
    let oracle = TestbedOracle::new(22);
    let reg = registry(
        &oracle,
        &[ModelSpec::roberta_large(), ModelSpec::bert_large()],
    );
    let jobs: Vec<JobSpec> = (0..4)
        .map(|i| {
            let model = if i % 2 == 0 {
                ModelSpec::roberta_large()
            } else {
                ModelSpec::bert_large()
            };
            job(i, model, 4, ExecutionPlan::dp(4), 1500)
        })
        .collect();
    let report = run(&oracle, reg, 2, vec![], jobs);
    assert_eq!(report.jobs.len(), 4, "unfinished: {:?}", report.unfinished);
    assert!(
        report.sla_attainment() >= 0.75,
        "sla attainment {}",
        report.sla_attainment()
    );
}

#[test]
fn llama7b_runs_on_single_gpu_cluster_via_offload() {
    // Fig. 7's end state: with only one GPU available, Rubick must pick
    // ZeRO-Offload (the only feasible plan) instead of failing.
    let oracle = TestbedOracle::new(23);
    let reg = registry(&oracle, &[ModelSpec::llama2_7b()]);
    let mut j = job(
        1,
        ModelSpec::llama2_7b(),
        1,
        ExecutionPlan::zero_offload(1),
        50,
    );
    j.requested = Resources::new(1, 32, 400.0);
    let mut engine = Engine::new(
        &oracle,
        Box::new(RubickScheduler::new(reg)),
        Cluster::new(
            1,
            NodeShape {
                gpus: 1,
                cpus: 32,
                mem_gb: 400.0,
                gpu_mem_gb: 80.0,
            },
        ),
        vec![],
        EngineConfig::default(),
    );
    let report = engine.run(vec![j]);
    assert_eq!(report.jobs.len(), 1, "unfinished: {:?}", report.unfinished);
}

#[test]
fn best_effort_yields_to_guaranteed() {
    let oracle = TestbedOracle::new(24);
    let reg = registry(&oracle, &[ModelSpec::roberta_large()]);
    let mut be = job(
        1,
        ModelSpec::roberta_large(),
        8,
        ExecutionPlan::dp(8),
        60_000,
    );
    be.class = JobClass::BestEffort;
    be.tenant = TenantId::new("tenant-b");
    let mut g = job(2, ModelSpec::roberta_large(), 8, ExecutionPlan::dp(8), 1000);
    g.submit_time = 120.0;
    g.tenant = TenantId::new("tenant-a");
    let report = run(&oracle, reg, 1, Tenant::paper_mt_pair(), vec![be, g]);
    assert_eq!(report.jobs.len(), 2, "unfinished: {:?}", report.unfinished);
    let g_rec = report.jobs.iter().find(|r| r.id == 2).unwrap();
    // The guaranteed job gets resources soon after submission (the
    // best-effort job is shrunk or preempted to make room).
    assert!(
        g_rec.first_start.unwrap() < 300.0,
        "guaranteed start: {:?}",
        g_rec.first_start
    );
}

#[test]
fn skewed_allocation_beats_equal_share_total() {
    // Fig. 8's mechanism: RoBERTa benefits little from a 2nd GPU
    // compared to T5; Rubick should skew GPUs toward T5.
    let oracle = TestbedOracle::new(25);
    let reg = registry(&oracle, &[ModelSpec::roberta_large(), ModelSpec::t5_1b()]);
    let roberta = job(1, ModelSpec::roberta_large(), 4, ExecutionPlan::dp(4), 2000);
    let t5 = job(2, ModelSpec::t5_1b(), 4, ExecutionPlan::zero_dp(4), 600);
    let mut engine = Engine::new(
        &oracle,
        Box::new(RubickScheduler::new(reg)),
        Cluster::new(
            1,
            NodeShape {
                gpus: 4,
                cpus: 48,
                mem_gb: 800.0,
                gpu_mem_gb: 80.0,
            },
        ),
        vec![],
        EngineConfig::default(),
    );
    let report = engine.run(vec![roberta, t5]);
    assert_eq!(report.jobs.len(), 2, "unfinished: {:?}", report.unfinished);
    // Rubick produced *some* non-trivial schedule without violating
    // accounting, and at least one reconfiguration/allocation decision
    // happened across the run.
    assert!(report.rounds >= 2);
    assert_eq!(report.infeasible_assignments, 0);
}

#[test]
fn no_infeasible_assignments_on_mixed_workload() {
    // The policy's memory estimator is shared with the oracle, so it
    // must never emit an assignment the testbed rejects.
    let oracle = TestbedOracle::new(26);
    let zoo = [
        ModelSpec::roberta_large(),
        ModelSpec::gpt2_xl(),
        ModelSpec::t5_1b(),
    ];
    let reg = registry(&oracle, &zoo);
    let jobs: Vec<JobSpec> = (0..6)
        .map(|i| {
            let model = zoo[i as usize % 3].clone();
            let gpus = [1u32, 2, 4][i as usize % 3];
            let mut j = job(i, model, gpus, ExecutionPlan::zero_dp(gpus), 400);
            j.submit_time = i as f64 * 200.0;
            j
        })
        .collect();
    let report = run(&oracle, reg, 2, vec![], jobs);
    assert_eq!(report.jobs.len(), 6, "unfinished: {:?}", report.unfinished);
    assert_eq!(report.infeasible_assignments, 0);
}

/// A guaranteed job whose minimum (16 GPUs) exceeds the one 8-GPU node
/// takes every GPU of the best-effort job running there and then rolls
/// back. The victim holds no host memory, so the transfers empty its
/// entry; the rollback must restore it with all 8 GPUs.
#[test]
fn rolled_back_search_restores_an_emptied_victim() {
    let oracle = TestbedOracle::new(24);
    let model = ModelSpec::roberta_large();
    let reg = registry(&oracle, std::slice::from_ref(&model));
    let victim = JobSpec {
        class: JobClass::BestEffort,
        ..job(1, model.clone(), 8, ExecutionPlan::dp(8), 1_000_000)
    };
    let grower = job(2, model, 16, ExecutionPlan::dp(16), 1000);
    let running = JobStatus::Running {
        allocation: Allocation::on_node(0, Resources::new(8, 48, 0.0)),
        plan: ExecutionPlan::dp(8),
        throughput: 1.0,
        resume_at: 0.0,
    };
    let jobs = [
        snapshot(victim, running),
        snapshot(grower, JobStatus::Queued),
    ];
    let out =
        RubickScheduler::new(reg).schedule(10.0, &jobs, &Cluster::new(1, NodeShape::a800()), &[]);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!((out[0].job, out[0].allocation.gpus()), (1, 8));
}

/// A frozen ZeRO-Offload job on a ledger with no free GPU still gains
/// from free CPUs, because its plan reads them. It holds fewer GPUs
/// than its cap, so its walk grabs CPUs up to the CPU cap and the
/// search is kept (`AllocMem` then trims the grant to the plan's
/// demand): it must not be skipped. The job holds its packed CPU
/// share, which its curve assumes, so only the flatness check (not
/// the envelope-shrink bound) stops the skip. The other job's model is
/// unknown, so its own search is a no-op.
#[test]
fn frozen_offload_job_on_a_full_ledger_is_still_searched() {
    let oracle = TestbedOracle::new(23);
    let model = ModelSpec::llama2_7b();
    let reg = registry(&oracle, std::slice::from_ref(&model));
    let alloc = Allocation::on_node(0, Resources::new(1, 12, 200.0));
    // Running the best plan on its placement: only more CPUs can help.
    let (plan, _) = reg
        .model(&model.name)
        .and_then(|m| m.best_plan(model.default_batch, &alloc.to_placement()))
        .unwrap();
    assert_eq!(plan.memory, MemoryMode::ZeroOffload);
    let running = |allocation, plan| JobStatus::Running {
        allocation,
        plan,
        throughput: 1.0,
        resume_at: 0.0,
    };
    // 100 s of runtime is far below the penalty gate's 0.97 share.
    let frozen = JobSnapshot {
        runtime: 100.0,
        ..snapshot(
            job(1, model, 1, plan, 1_000_000),
            running(alloc.clone(), plan),
        )
    };
    assert!(!frozen.reconfig_allowed(0.97));
    let other = snapshot(
        job(2, ModelSpec::roberta_large(), 7, ExecutionPlan::dp(7), 1000),
        running(
            Allocation::on_node(0, Resources::new(7, 14, 100.0)),
            ExecutionPlan::dp(7),
        ),
    );
    let out = RubickScheduler::new(reg).schedule(
        10.0,
        &[frozen, other],
        &Cluster::new(1, NodeShape::a800()),
        &[],
    );
    let grown = out.iter().find(|a| a.job == 1).expect("job 1 assigned");
    assert_ne!(grown.allocation, alloc, "{out:?}");
}

/// A queued best-effort RoBERTa job (`id` 2) next to a best-effort
/// `victim` model (`id` 1) holding all 8 GPUs of the one node, so the
/// ledger has no free GPU. The queued job's minimum is zero: it takes a
/// GPU only if the victim's loss slope is below its gain times the
/// hysteresis. Every model of the registry has the fixed parameters
/// given, not fitted ones, so which side of the bar a victim sits on
/// does not depend on the fitter.
fn queued_next_to(
    victim: ModelSpec,
    models: &[(ModelSpec, PerfParams)],
) -> (Arc<ModelRegistry>, [JobSnapshot; 2]) {
    let oracle = TestbedOracle::new(24);
    let reg = ModelRegistry::new(*oracle.env(), *oracle.shape());
    for (spec, params) in models {
        reg.insert(ThroughputModel::new(
            spec.clone(),
            *params,
            *oracle.env(),
            *oracle.shape(),
        ));
    }
    let best_effort = |spec: JobSpec, status| {
        let class = JobClass::BestEffort;
        snapshot(JobSpec { class, ..spec }, status)
    };
    let running = best_effort(
        job(1, victim, 8, ExecutionPlan::dp(8), 1_000_000),
        JobStatus::Running {
            allocation: Allocation::on_node(0, Resources::new(8, 48, 800.0)),
            plan: ExecutionPlan::dp(8),
            throughput: 1.0,
            resume_at: 0.0,
        },
    );
    let queued = best_effort(
        job(
            2,
            ModelSpec::roberta_large(),
            1,
            ExecutionPlan::dp(1),
            1_000_000,
        ),
        JobStatus::Queued,
    );
    (Arc::new(reg), [running, queued])
}

/// `(victim loss, grower gain × SHRINK_HYSTERESIS)` of [`queued_next_to`]'s
/// pair: the victim's loss slope at its 8 GPUs and the queued job's
/// jump gain at none, read from the round context the scheduler builds.
fn slope_bar(reg: &ModelRegistry, jobs: &[JobSnapshot; 2]) -> (f64, f64) {
    let cfg = RubickConfig::default();
    let cluster = Cluster::new(1, NodeShape::a800());
    let total_gpus = cluster.schedulable_capacity().gpus;
    let estimator = MemoryEstimator::new(cluster.shape().gpu_mem_gb);
    let mut index = JobIndex::default();
    index.rebuild(jobs);
    let (mut memo, mut cache) = (BestPlanMemo::new(), JobCache::default());
    let entries = cache.refresh(reg, total_gpus, jobs, |snap| {
        build_job_parts(reg, &cfg, snap, total_gpus, estimator, &mut memo)
    });
    let ctx = Ctx {
        config: &cfg,
        index: &index,
        jobs,
        entries,
        memo: RefCell::new(&mut memo),
        frozen: &[false, false],
        estimator,
        total_gpus,
    };
    (
        ctx.loss_slope(1, 8),
        ctx.jump_gain(2, 0) * SHRINK_HYSTERESIS,
    )
}

fn schedule_pair(reg: Arc<ModelRegistry>, jobs: &[JobSnapshot; 2]) -> Vec<(u64, u32)> {
    let out =
        RubickScheduler::new(reg).schedule(10.0, jobs, &Cluster::new(1, NodeShape::a800()), &[]);
    out.iter().map(|a| (a.job, a.allocation.gpus())).collect()
}

/// A RoBERTa victim's loss slope at 8 GPUs is below the queued job's
/// bar, so the search must not be skipped: it takes one GPU. A tenth of
/// a second of fixed cost per iteration (`k_const`) flattens RoBERTa's
/// curve at 8 GPUs far more than at 1.
#[test]
fn queued_job_on_a_full_ledger_takes_a_gpu_below_the_slope_bar() {
    let roberta = ModelSpec::roberta_large();
    let flat = PerfParams {
        k_const: 0.1,
        ..PerfParams::default()
    };
    let (reg, jobs) = queued_next_to(roberta.clone(), &[(roberta, flat)]);
    let (loss, bar) = slope_bar(&reg, &jobs);
    assert!(loss < bar, "victim loss {loss} is not below the bar {bar}");
    assert_eq!(schedule_pair(reg, &jobs), [(1, 7), (2, 1)]);
}

/// A BERT victim's loss slope is above the bar: the search is
/// skipped (walked on a clone in debug builds) and the victim keeps
/// its allocation. With almost no fixed cost per iteration BERT scales
/// nearly linearly to 8 GPUs; the RoBERTa grower keeps the defaults.
#[test]
fn queued_job_on_a_full_ledger_above_the_slope_bar_changes_nothing() {
    let (bert, roberta) = (ModelSpec::bert_large(), ModelSpec::roberta_large());
    let steep = PerfParams {
        k_const: 0.001,
        ..PerfParams::default()
    };
    let models = [(bert.clone(), steep), (roberta, PerfParams::default())];
    let (reg, jobs) = queued_next_to(bert, &models);
    let (loss, bar) = slope_bar(&reg, &jobs);
    assert!(loss >= bar, "victim loss {loss} is below the bar {bar}");
    assert_eq!(schedule_pair(reg, &jobs), [(1, 8)]);
}

/// A full-round scheduler, so every round searches every job.
fn full_rounds(reg: &Arc<ModelRegistry>) -> RubickScheduler {
    RubickScheduler::with_config(
        Arc::clone(reg),
        RubickConfig {
            incremental: false,
            ..RubickConfig::default()
        },
    )
}

/// Two frozen running jobs holding four GPUs each of the one node: the
/// ledger has no free GPU and neither job may take one, so each search
/// reaches its skip certificate.
fn gpu_full_pair() -> (Arc<ModelRegistry>, Vec<JobSnapshot>) {
    let oracle = TestbedOracle::new(24);
    let models = [ModelSpec::roberta_large(), ModelSpec::bert_large()];
    let reg = registry(&oracle, &models);
    let jobs = models
        .into_iter()
        .zip(1..)
        .map(|(model, id)| {
            let spec = job(id, model, 4, ExecutionPlan::dp(4), 1_000_000);
            let node = Resources::new(4, 24, 200.0);
            let status = running_on(vec![(0, node)], ExecutionPlan::dp(4));
            // Far below the penalty gate's 0.97 share: frozen.
            JobSnapshot {
                runtime: 100.0,
                ..snapshot(spec, status)
            }
        })
        .collect();
    (reg, jobs)
}

fn decide(sched: &mut RubickScheduler, jobs: &[JobSnapshot]) -> Vec<Assignment> {
    sched.schedule(10.0, jobs, &Cluster::new(1, NodeShape::a800()), &[])
}

/// Every certificate in the scheduler's cache as `(job, allocation,
/// plan, verdict)`, in the last round's job order.
fn certs(sched: &RubickScheduler) -> Vec<(u64, Allocation, ExecutionPlan, bool)> {
    sched
        .cache
        .entries
        .iter()
        .filter_map(|e| {
            let cert = e.cert.borrow();
            let c = cert.as_ref()?;
            Some((e.id(), c.alloc.clone(), c.plan, c.rolls_back))
        })
        .collect()
}

/// Flips the stored verdicts of `ids`, so a certificate served
/// without being re-decided shows up in the output, the certificates,
/// or (debug builds) the hit's recompute.
fn poison(sched: &mut RubickScheduler, ids: &[u64]) {
    for id in ids {
        let entry = sched.cache.entries.iter().find(|e| e.id() == *id);
        let mut cert = entry.expect("cached").cert.borrow_mut();
        let cert = cert.as_mut().expect("certified");
        cert.rolls_back = !cert.rolls_back;
    }
}

/// Schedules `jobs` on `warm` and on a scheduler with no certificate,
/// and checks both decide the same assignments and certificates.
fn assert_matches_cold(warm: &mut RubickScheduler, reg: &Arc<ModelRegistry>, jobs: &[JobSnapshot]) {
    let out = decide(warm, jobs);
    let mut cold = full_rounds(reg);
    assert_eq!(out, decide(&mut cold, jobs));
    assert_eq!(certs(warm), certs(&cold));
}

/// A job whose allocation or plan moved since its certificate was
/// decided misses it and is re-decided on the new pair.
#[test]
fn reconfigured_job_misses_its_cert() {
    let (reg, mut jobs) = gpu_full_pair();
    let mut warm = full_rounds(&reg);
    decide(&mut warm, &jobs);
    // The plan moves, then the allocation.
    let reconfigs = [
        (Resources::new(4, 24, 200.0), ExecutionPlan::zero_dp(4)),
        (Resources::new(4, 16, 150.0), ExecutionPlan::zero_dp(4)),
    ];
    for (node, new_plan) in reconfigs {
        let JobStatus::Running {
            allocation, plan, ..
        } = &mut jobs[0].status
        else {
            unreachable!("job 1 runs");
        };
        *allocation = Allocation::on_node(0, node);
        *plan = new_plan;
        poison(&mut warm, &[1]);
        assert_matches_cold(&mut warm, &reg, &jobs);
        assert_eq!(certs(&warm)[0].1, Allocation::on_node(0, node));
    }
}

/// A registry version bump (a refit published through
/// `ModelRegistry::insert`) clears every certificate.
#[test]
fn registry_bump_clears_every_cert() {
    let (reg, jobs) = gpu_full_pair();
    let mut warm = full_rounds(&reg);
    decide(&mut warm, &jobs);
    poison(&mut warm, &[1, 2]);
    let refit = reg.model(&ModelSpec::roberta_large().name).unwrap();
    reg.insert(refit.as_ref().clone());
    assert_matches_cold(&mut warm, &reg, &jobs);
}

/// A job that left the system loses its certificate. Job 3 starts on
/// finished job 2's GPUs, so the ledger stays GPU-full.
#[test]
fn finished_jobs_lose_their_cert() {
    let (reg, mut jobs) = gpu_full_pair();
    let mut warm = full_rounds(&reg);
    decide(&mut warm, &jobs);
    let mut spec = JobSpec::clone(&jobs[1].spec);
    spec.id = 3;
    jobs[1].spec = Arc::new(spec);
    assert_matches_cold(&mut warm, &reg, &jobs);
    let ids: Vec<_> = certs(&warm).iter().map(|c| c.0).collect();
    assert_eq!(ids, [1, 3]);
}

/// Quotas moving re-plans every job of an incremental scheduler but
/// resolves none: its cache keys on the registry version and the
/// cluster's GPU count only, so every entry keeps its certificate. A
/// change of the GPU count resolves every job again.
#[test]
fn quota_only_epoch_change_keeps_cached_parts() {
    let (reg, jobs) = gpu_full_pair();
    // The cache misses, dirty jobs and certificates of one round.
    let round = |sched: &mut RubickScheduler, nodes, tenants: &[Tenant]| {
        RESOLVED.with(|n| n.set(0));
        let cluster = Cluster::new(nodes, NodeShape::a800());
        sched.schedule(10.0, &jobs, &cluster, tenants);
        let dirty = sched.last_round_stats().unwrap().dirty;
        (RESOLVED.with(Cell::get), dirty, certs(sched).len())
    };
    let mut sched = RubickScheduler::new(reg);
    assert_eq!(round(&mut sched, 1, &[]), (2, 2, 2));
    let quota = [Tenant::new("t", Resources::new(4, 8, 100.0))];
    assert_eq!(round(&mut sched, 1, &quota), (0, 2, 2));
    assert_eq!(round(&mut sched, 2, &quota).0, 2);
}

/// A guaranteed job whose SLA baseline no GPU count reaches, so
/// `min_res` falls back to the whole request as its minimum. The
/// baseline also sets the job's slope norm: a larger one orders it
/// later in the running pass.
fn pinned(spec: JobSpec, status: JobStatus, baseline: f64) -> JobSnapshot {
    JobSnapshot {
        baseline_throughput: Some(baseline),
        ..snapshot(spec, status)
    }
}

fn running_on(per_node: Vec<(usize, Resources)>, plan: ExecutionPlan) -> JobStatus {
    JobStatus::Running {
        allocation: Allocation { per_node },
        plan,
        throughput: 1.0,
        resume_at: 0.0,
    }
}

/// A pinned RoBERTa job running on `held` GPUs of the one node and a
/// queued pinned one asking for 4: the GPU reach is the node's free
/// GPUs, since the running job sits at its minimum. Returns the
/// round's assignments and how many searches skipped on the reach.
fn queued_beside_pinned(held: u32) -> (Vec<Assignment>, u64) {
    let oracle = TestbedOracle::new(24);
    let model = ModelSpec::roberta_large();
    let reg = registry(&oracle, std::slice::from_ref(&model));
    let plan = ExecutionPlan::dp(held);
    let holder = pinned(
        job(1, model.clone(), held, plan, 1_000_000),
        running_on(vec![(0, Resources::new(held, 6 * held, 100.0))], plan),
        1e6,
    );
    let queued = pinned(
        job(2, model, 4, ExecutionPlan::dp(4), 1_000_000),
        JobStatus::Queued,
        1e6,
    );
    REACH_SKIPS.with(|n| n.set(0));
    let out = decide(&mut full_rounds(&reg), &[holder, queued]);
    (out, REACH_SKIPS.with(Cell::get))
}

/// Two free GPUs cannot lift the queued job to its minimum of 4, so
/// its search is skipped with free GPUs on the ledger (and walked on
/// a clone in debug builds, which must roll back).
#[test]
fn queued_job_beyond_the_gpu_reach_is_skipped() {
    let (out, skips) = queued_beside_pinned(6);
    assert_eq!(skips, 1);
    assert!(out.iter().all(|a| a.job != 2), "{out:?}");
}

/// With four free GPUs the reach meets the minimum exactly: the
/// search is walked and admits the job on them.
#[test]
fn queued_job_at_the_gpu_reach_is_walked() {
    let (out, skips) = queued_beside_pinned(4);
    assert_eq!(skips, 0);
    let admitted = out.iter().find(|a| a.job == 2).expect("job 2 admitted");
    assert_eq!(admitted.allocation.gpus(), 4, "{out:?}");
}

/// A kept search that returns GPUs raises the reach mid-pass, and a
/// later search must see the raise. On two nodes, ViT job 1 runs on
/// nine GPUs (eight on node 0, one on node 1) at its minimum of nine;
/// its best nine-GPU plan is a nine-stage pipeline well below the
/// eight-GPU envelope, so its search sheds node 1's GPU and is kept.
/// ViT job 3 runs on node 1's other seven GPUs below its minimum of
/// eight, and its larger norm searches it after job 1. Queued job 2
/// is skipped first, caching a reach of 0; job 3 reaches its minimum
/// only through the GPU job 1 freed.
#[test]
fn kept_search_that_frees_gpus_raises_the_reach_for_later_searches() {
    let oracle = TestbedOracle::new(24);
    let model = ModelSpec::vit_base();
    let reg = registry(&oracle, std::slice::from_ref(&model));
    let vit = reg.model(&model.name).unwrap();
    let batch = model.default_batch;
    let best = |gpus| {
        let placement = rubick_model::Placement::spread(gpus, 8, 12 * gpus, 100.0);
        vit.best_plan(batch, &placement).unwrap().0
    };
    let (nine, seven) = (best(9), best(7));
    let shedder = pinned(
        job(1, model.clone(), 9, nine, 1_000_000),
        running_on(
            vec![
                (0, Resources::new(8, 96, 800.0)),
                (1, Resources::new(1, 12, 100.0)),
            ],
            nine,
        ),
        1e6,
    );
    let queued = pinned(
        job(2, model.clone(), 4, ExecutionPlan::dp(4), 1_000_000),
        JobStatus::Queued,
        1e6,
    );
    let grower = pinned(
        job(3, model, 8, seven, 1_000_000),
        running_on(vec![(1, Resources::new(7, 84, 700.0))], seven),
        1e12,
    );
    REACH_SKIPS.with(|n| n.set(0));
    let out = full_rounds(&reg).schedule(
        10.0,
        &[shedder, queued, grower],
        &Cluster::new(2, NodeShape::a800()),
        &[],
    );
    // (job, node, GPUs) of every grant holding GPUs.
    let gpus: Vec<_> = out
        .iter()
        .flat_map(|a| {
            a.allocation
                .per_node
                .iter()
                .map(|(n, r)| (a.job, *n, r.gpus))
        })
        .filter(|g| g.2 > 0)
        .collect();
    assert_eq!(gpus, [(1, 0, 8), (3, 1, 8)], "{out:?}");
    assert_eq!(REACH_SKIPS.with(Cell::get), 1);
}

/// A mixed round on two nodes: two running guaranteed jobs, a running
/// and a queued best-effort job, and a queued guaranteed one. Every
/// host-memory amount is a whole number of GB, so the ledger charges
/// are exact in any order.
fn mixed_jobs() -> (Arc<ModelRegistry>, Vec<JobSnapshot>) {
    let oracle = TestbedOracle::new(24);
    let models = [
        ModelSpec::roberta_large(),
        ModelSpec::bert_large(),
        ModelSpec::t5_1b(),
    ];
    let reg = registry(&oracle, &models);
    let [roberta, bert, t5] = models;
    let best_effort = |spec: JobSpec| JobSpec {
        class: JobClass::BestEffort,
        ..spec
    };
    let running = |node, gpus| {
        let grant = Resources::new(gpus, 6 * gpus, 100.0 * gpus as f64);
        running_on(vec![(node, grant)], ExecutionPlan::dp(gpus))
    };
    let jobs = vec![
        snapshot(
            job(1, roberta.clone(), 4, ExecutionPlan::dp(4), 1_000_000),
            running(0, 4),
        ),
        snapshot(
            job(2, bert.clone(), 4, ExecutionPlan::dp(4), 1_000_000),
            running(1, 4),
        ),
        snapshot(
            best_effort(job(3, roberta.clone(), 2, ExecutionPlan::dp(2), 1_000_000)),
            running(0, 2),
        ),
        snapshot(
            job(4, t5, 2, ExecutionPlan::zero_dp(2), 1_000_000),
            JobStatus::Queued,
        ),
        snapshot(
            best_effort(job(5, bert, 2, ExecutionPlan::dp(2), 1_000_000)),
            JobStatus::Queued,
        ),
    ];
    (reg, jobs)
}

/// A cold round over a shuffled jobs slice, incremental and full,
/// emits exactly the assignments of the id-sorted slice: the table
/// walks its entries in job-id order whatever the slice order.
#[test]
fn shuffled_slice_emits_the_id_sorted_assignments() {
    let (reg, sorted) = mixed_jobs();
    let cluster = Cluster::new(2, NodeShape::a800());
    let shuffled: Vec<_> = [3, 0, 4, 2, 1].map(|i| sorted[i].clone()).into();
    for incremental in [true, false] {
        let cfg = RubickConfig {
            incremental,
            ..RubickConfig::default()
        };
        let cold = |jobs: &[JobSnapshot]| {
            let mut sched = RubickScheduler::with_config(Arc::clone(&reg), cfg.clone());
            sched.schedule(10.0, jobs, &cluster, &[])
        };
        let want = cold(&sorted);
        assert!(want.len() >= 3, "{want:?}");
        assert!(want.windows(2).all(|w| w[0].job < w[1].job), "{want:?}");
        assert_eq!(cold(&shuffled), want, "incremental: {incremental}");
    }
}

/// A warm scheduler whose rounds gain and lose jobs, so every
/// position shifts and its reused buffers hold stale slots, decides
/// every round as a cold one does, full and incremental. The ledger
/// stays GPU-full, so every running job's search reaches its skip
/// certificate and a warm certificate must equal a cold one. The
/// queued jobs' model is not in the registry, so they take nothing.
#[test]
fn warm_table_buffers_match_cold_as_the_slice_shifts() {
    let (reg, jobs) = gpu_full_pair();
    let (first, second) = (jobs[0].clone(), jobs[1].clone());
    let queued = |id| {
        let spec = job(id, ModelSpec::gpt2_xl(), 2, ExecutionPlan::dp(2), 1000);
        snapshot(spec, JobStatus::Queued)
    };
    // Job 5 starts on job 1's GPUs once job 1 finishes.
    let mut spec = JobSpec::clone(&second.spec);
    spec.id = 5;
    let fifth = JobSnapshot {
        spec: Arc::new(spec),
        ..second.clone()
    };
    let rounds = [
        vec![first.clone(), second.clone()],
        // A lower id arrives, so both running jobs move up a slot.
        vec![queued(0), first, second.clone()],
        // Jobs 0 and 1 leave: job 2 moves down to slot 0.
        vec![second.clone(), queued(3), fifth.clone()],
        // Slot 2 goes stale.
        vec![second, fifth],
        Vec::new(),
    ];
    let mut warm = full_rounds(&reg);
    let mut incremental = RubickScheduler::new(Arc::clone(&reg));
    for jobs in &rounds {
        assert_matches_cold(&mut warm, &reg, jobs);
        let cold = decide(&mut full_rounds(&reg), jobs);
        assert_eq!(decide(&mut incremental, jobs), cold);
    }
}
