//! Plan-search modes: how far a policy may reconfigure a job's plan.
//!
//! Rubick searches every feasible plan (§5.2); Sia and Rubick-R only
//! rescale the data-parallel degree of the job's initial plan; Synergy,
//! AntMan and Rubick-N never change the plan at all. The mode is part of a
//! cached curve's key ([`CurveCache`](crate::curve::CurveCache)), so every
//! policy's curves share one cache and one invalidation path.

use crate::curve::SensitivityCurve;
use crate::perf::ThroughputModel;
use crate::placement::Placement;
use crate::plan::{enumerate_plans, ExecutionPlan, Parallelism};
use crate::resources::ResourceKind;

/// The plan-reconfiguration freedom a policy has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanSearch {
    /// Enumerate every feasible plan and pick the best (Rubick, §5.2).
    Full,
    /// Keep the plan's structure, rescale only the data-parallel degree
    /// when GPUs change (what Sia does; used by Rubick-R).
    DpScale(ExecutionPlan),
    /// Never change the plan; it only runs on exactly its GPU count.
    Fixed(ExecutionPlan),
}

impl PlanSearch {
    /// Rescales `base` to `gpus` GPUs by adjusting the DP degree, keeping
    /// TP/PP sizes, memory mode and GC, and shrinking GA/micro-batch counts
    /// as needed so the per-device micro-batch stays non-empty.
    ///
    /// Returns `None` when `gpus` is not a multiple of `t·p` or the batch
    /// cannot feed that many replicas.
    pub fn rescale_dp(base: &ExecutionPlan, gpus: u32, global_batch: u32) -> Option<ExecutionPlan> {
        let tp_pp = base.parallel.tp * base.parallel.pp;
        if gpus == 0 || !gpus.is_multiple_of(tp_pp) {
            return None;
        }
        let d = gpus / tp_pp;
        if d > global_batch || !global_batch.is_multiple_of(d) {
            return None;
        }
        let mut plan = *base;
        plan.parallel = Parallelism::new(d, base.parallel.tp, base.parallel.pp);
        while plan.ga_steps > 1
            && (d * plan.ga_steps > global_batch || !global_batch.is_multiple_of(d * plan.ga_steps))
        {
            plan.ga_steps /= 2;
        }
        if plan.parallel.pp > 1 {
            let mut m = plan.micro_batches.min((global_batch / d).max(1)).max(1);
            while m > 1 && !global_batch.is_multiple_of(d * m) {
                m -= 1;
            }
            plan.micro_batches = m;
        }
        Some(plan)
    }

    /// The candidate plans this search mode considers on `gpus` GPUs.
    pub fn candidates(
        &self,
        model: &ThroughputModel,
        gpus: u32,
        global_batch: u32,
    ) -> Vec<ExecutionPlan> {
        match self {
            PlanSearch::Full => {
                enumerate_plans(&model.spec, gpus, global_batch, &model.shape, &model.env)
            }
            PlanSearch::DpScale(base) => Self::rescale_dp(base, gpus, global_batch)
                .into_iter()
                .collect(),
            PlanSearch::Fixed(plan) => {
                if plan.gpus() == gpus {
                    vec![*plan]
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// The best (plan, predicted throughput) on a placement under this
    /// search mode — `GetBestPlan` of Algorithm 1, restricted per policy.
    ///
    /// Full search delegates to the model's cached, unchecked fast path
    /// ([`ThroughputModel::best_plan`]), which scores the same candidates in
    /// the same order; the restricted modes have at most one candidate and
    /// keep the checked scoring.
    pub fn best_plan(
        &self,
        model: &ThroughputModel,
        global_batch: u32,
        placement: &Placement,
    ) -> Option<(ExecutionPlan, f64)> {
        if let PlanSearch::Full = self {
            return model.best_plan(global_batch, placement);
        }
        let mut best: Option<(ExecutionPlan, f64)> = None;
        for plan in self.candidates(model, placement.total_gpus(), global_batch) {
            if let Ok(tput) = model.throughput(&plan, global_batch, placement) {
                if best.as_ref().map(|(_, b)| tput > *b).unwrap_or(true) {
                    best = Some((plan, tput));
                }
            }
        }
        best
    }

    /// Builds the GPU sensitivity curve under this search mode, uncached.
    /// Schedulers go through [`CurveCache::gpu_curve`](crate::curve::CurveCache::gpu_curve),
    /// which calls this on a miss.
    pub fn gpu_curve(
        &self,
        model: &ThroughputModel,
        global_batch: u32,
        max_gpus: u32,
    ) -> SensitivityCurve {
        match self {
            PlanSearch::Full => SensitivityCurve::for_gpus(model, global_batch, max_gpus),
            _ => SensitivityCurve::from_fn(ResourceKind::Gpu, max_gpus, |g| {
                let placement = Placement::packed(g, &model.shape);
                self.best_plan(model, global_batch, &placement)
            }),
        }
    }
}
