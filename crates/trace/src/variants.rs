//! Scenario variants of the base trace (§7.3) and the sweep knobs (§7.4).

use crate::philly::{generate_base, generate_base_with, PlanMemo, TraceConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rubick_model::{ModelSpec, Placement};
use rubick_sim::job::{JobClass, JobSpec};
use rubick_sim::tenant::{Tenant, TenantId};
use rubick_testbed::TestbedOracle;

/// The **Best-Plan (BP) trace**: same jobs as the base trace, but each
/// job's initial plan is replaced by the *best* plan for its initially
/// requested resources (measured on the testbed). Rubick's edge over
/// baselines shrinks but persists on this trace, because the assigned plan
/// "is the best only for the initial resource allocation".
pub fn best_plan_trace(config: &TraceConfig, oracle: &TestbedOracle) -> Vec<JobSpec> {
    best_plan_trace_with(config, &mut PlanMemo::new(oracle))
}

/// [`best_plan_trace`], asking `memo` for candidate plans.
fn best_plan_trace_with(config: &TraceConfig, memo: &mut PlanMemo<'_>) -> Vec<JobSpec> {
    let oracle = memo.oracle();
    let mut jobs = generate_base_with(config, memo);
    let shape = *oracle.shape();
    for job in &mut jobs {
        let placement = Placement::spread(
            job.requested.gpus,
            shape.gpus,
            job.requested.cpus,
            job.requested.mem_gb,
        );
        let mut best: Option<(rubick_model::ExecutionPlan, f64)> = None;
        for plan in memo.plans(&job.model, job.requested.gpus, job.global_batch) {
            if let Some(tput) = oracle.throughput(&job.model, &plan, job.global_batch, &placement) {
                if best.as_ref().map(|(_, b)| tput > *b).unwrap_or(true) {
                    best = Some((plan, tput));
                }
            }
        }
        if let Some((plan, tput)) = best {
            // Keep the same wall-clock duration: the batch target moves
            // with the (better) plan's throughput.
            let old_placement_tput = oracle
                .throughput(&job.model, &job.initial_plan, job.global_batch, &placement)
                .unwrap_or(tput);
            let duration = job.target_batches as f64 * job.global_batch as f64 / old_placement_tput;
            job.initial_plan = plan;
            job.target_batches =
                ((duration * tput / job.global_batch as f64).round() as u64).max(10);
        }
    }
    jobs
}

/// The **Multi-Tenant (MT) trace**: two tenants — Tenant-A with a 64-GPU
/// quota (all of its jobs guaranteed) and Tenant-B with no quota (all
/// best-effort) — with jobs dispatched randomly between them.
pub fn multi_tenant_trace(
    config: &TraceConfig,
    oracle: &TestbedOracle,
) -> (Vec<JobSpec>, Vec<Tenant>) {
    let mut jobs = generate_base(config, oracle);
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x4d54);
    for job in &mut jobs {
        if rng.random::<f64>() < 0.5 {
            job.tenant = TenantId::new("tenant-a");
            job.class = JobClass::Guaranteed;
        } else {
            job.tenant = TenantId::new("tenant-b");
            job.class = JobClass::BestEffort;
        }
    }
    (jobs, Tenant::paper_mt_pair())
}

/// Rewrites the model mix so that `fraction` of jobs use the large models
/// (LLaMA-2-7B / LLaMA-30B) — the Fig. 11 sweep. Feasibility and batch
/// targets are recomputed for reassigned jobs.
pub fn with_large_model_fraction(
    config: &TraceConfig,
    oracle: &TestbedOracle,
    fraction: f64,
) -> Vec<JobSpec> {
    with_large_model_fraction_with(config, &mut PlanMemo::new(oracle), fraction)
}

/// [`with_large_model_fraction`], asking `memo` for candidate plans.
fn with_large_model_fraction_with(
    config: &TraceConfig,
    memo: &mut PlanMemo<'_>,
    fraction: f64,
) -> Vec<JobSpec> {
    let oracle = memo.oracle();
    let mut jobs = generate_base_with(config, memo);
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0xF16);
    let n = jobs.len();
    let want_large = (n as f64 * fraction).round() as usize;
    let shape = *oracle.shape();

    // Indices currently large/small.
    let mut large_idx: Vec<usize> = (0..n).filter(|&i| jobs[i].model.is_large()).collect();
    let mut small_idx: Vec<usize> = (0..n).filter(|&i| !jobs[i].model.is_large()).collect();

    let mut reassign = |job: &mut JobSpec, model: ModelSpec, rng: &mut SmallRng| {
        let batch = model.default_batch;
        // The job's current wall-clock duration at its requested config.
        let old_placement = Placement::spread(
            job.requested.gpus,
            shape.gpus,
            job.requested.cpus,
            job.requested.mem_gb,
        );
        let Some(old_tput) = oracle.throughput(
            &job.model,
            &job.initial_plan,
            job.global_batch,
            &old_placement,
        ) else {
            return false;
        };
        let old_duration = job.target_batches as f64 * job.global_batch as f64 / old_tput;
        let old_gpu_secs = job.requested.gpus as f64 * old_duration;

        // Find a feasible GPU count near the original request, respecting
        // the realistic request floor for large models.
        let mut gpus = job
            .requested
            .gpus
            .max(crate::philly::request_floor(&model))
            .min(64);
        let mut plans = memo.plans(&model, gpus, batch);
        while plans.is_empty() && gpus < 64 {
            gpus *= 2;
            plans = memo.plans(&model, gpus.min(64), batch);
        }
        if plans.is_empty() {
            return false;
        }
        let gpus = gpus.min(64);
        let plan = plans[rng.random_range(0..plans.len())];
        let requested = rubick_model::Resources::new(
            gpus,
            (shape.cpus as f64 * gpus as f64 / shape.gpus as f64).round() as u32,
            shape.mem_gb * gpus as f64 / shape.gpus as f64,
        );
        let placement = Placement::spread(gpus, shape.gpus, requested.cpus, requested.mem_gb);
        let Some(tput) = oracle.throughput(&model, &plan, batch, &placement) else {
            return false;
        };
        // Preserve the job's GPU-hours so the sweep isolates the *mix*
        // effect from the load effect (Fig. 10 already sweeps load): more
        // large gangs at constant offered load.
        let duration = (old_gpu_secs / gpus as f64).max(60.0);
        let target = ((duration * tput / batch as f64).round() as u64).max(10);
        job.model = model;
        job.global_batch = batch;
        job.requested = requested;
        job.initial_plan = plan;
        job.target_batches = target;
        true
    };

    while large_idx.len() < want_large && !small_idx.is_empty() {
        let pick = rng.random_range(0..small_idx.len());
        let idx = small_idx.swap_remove(pick);
        let model = if rng.random::<f64>() < 0.6 {
            ModelSpec::llama2_7b()
        } else {
            ModelSpec::llama_30b()
        };
        if reassign(&mut jobs[idx], model, &mut rng) {
            large_idx.push(idx);
        }
    }
    while large_idx.len() > want_large {
        let pick = rng.random_range(0..large_idx.len());
        let idx = large_idx.swap_remove(pick);
        let model = [
            ModelSpec::vit_base(),
            ModelSpec::roberta_large(),
            ModelSpec::bert_large(),
            ModelSpec::gpt2_xl(),
        ][rng.random_range(0..4usize)]
        .clone();
        let _ = reassign(&mut jobs[idx], model, &mut rng);
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TraceConfig {
        TraceConfig {
            base_jobs: 50,
            ..TraceConfig::default()
        }
    }

    #[test]
    fn memoized_plans_build_the_memo_free_variants() {
        for seed in [1, 7, 2025] {
            let oracle = TestbedOracle::new(seed);
            let config = TraceConfig { seed, ..cfg() };
            assert_eq!(
                best_plan_trace(&config, &oracle),
                best_plan_trace_with(&config, &mut PlanMemo::uncached(&oracle)),
                "best-plan trace, seed {seed}"
            );
            for frac in [0.1, 0.7] {
                assert_eq!(
                    with_large_model_fraction(&config, &oracle, frac),
                    with_large_model_fraction_with(&config, &mut PlanMemo::uncached(&oracle), frac),
                    "large fraction {frac}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn bp_plans_are_at_least_as_good() {
        let oracle = TestbedOracle::new(1);
        let base = generate_base(&cfg(), &oracle);
        let bp = best_plan_trace(&cfg(), &oracle);
        assert_eq!(base.len(), bp.len());
        let shape = *oracle.shape();
        for (b, p) in base.iter().zip(&bp) {
            let placement = Placement::spread(
                b.requested.gpus,
                shape.gpus,
                b.requested.cpus,
                b.requested.mem_gb,
            );
            let t_base = oracle
                .throughput(&b.model, &b.initial_plan, b.global_batch, &placement)
                .unwrap();
            let t_bp = oracle
                .throughput(&p.model, &p.initial_plan, p.global_batch, &placement)
                .unwrap();
            assert!(
                t_bp >= t_base * 0.999,
                "BP plan {} worse than base {} for {}",
                p.initial_plan,
                b.initial_plan,
                b.model.name
            );
        }
    }

    #[test]
    fn mt_trace_splits_tenants() {
        let oracle = TestbedOracle::new(1);
        let (jobs, tenants) = multi_tenant_trace(&cfg(), &oracle);
        assert_eq!(tenants.len(), 2);
        let a = jobs
            .iter()
            .filter(|j| j.tenant == TenantId::new("tenant-a"))
            .count();
        let b = jobs.len() - a;
        assert!(a > 0 && b > 0);
        for j in &jobs {
            match j.class {
                JobClass::Guaranteed => assert_eq!(j.tenant, TenantId::new("tenant-a")),
                JobClass::BestEffort => assert_eq!(j.tenant, TenantId::new("tenant-b")),
            }
        }
    }

    #[test]
    fn large_fraction_sweep_hits_target() {
        let oracle = TestbedOracle::new(1);
        for frac in [0.1, 0.4, 0.7] {
            let jobs = with_large_model_fraction(&cfg(), &oracle, frac);
            let large = jobs.iter().filter(|j| j.model.is_large()).count() as f64;
            let actual = large / jobs.len() as f64;
            assert!((actual - frac).abs() < 0.12, "target {frac}, got {actual}");
        }
    }

    #[test]
    fn sweep_jobs_remain_feasible() {
        let oracle = TestbedOracle::new(1);
        let jobs = with_large_model_fraction(&cfg(), &oracle, 0.6);
        let shape = *oracle.shape();
        for j in &jobs {
            let placement = Placement::spread(
                j.requested.gpus,
                shape.gpus,
                j.requested.cpus,
                j.requested.mem_gb,
            );
            assert!(oracle
                .throughput(&j.model, &j.initial_plan, j.global_batch, &placement)
                .is_some());
        }
    }
}
