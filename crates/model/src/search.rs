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
use crate::plan::{ExecutionPlan, Parallelism};

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

    /// The key [`CurveCache`](crate::curve::CurveCache) files this mode's
    /// curves under: a DP-rescale base with its DP degree set to 1, every
    /// other mode as it is. Exact because [`rescale_dp`](Self::rescale_dp)
    /// never reads `base.parallel.dp` — it keeps TP, PP, memory mode, GA,
    /// micro-batches and GC, and derives the DP degree from `gpus` — so
    /// all bases that differ only in DP degree build one bit-identical
    /// curve.
    pub fn curve_key(&self) -> PlanSearch {
        match *self {
            PlanSearch::DpScale(mut base) => {
                base.parallel.dp = 1;
                PlanSearch::DpScale(base)
            }
            search => search,
        }
    }

    /// The one plan a restricted mode considers on `gpus` GPUs: the
    /// rescaled base, or the fixed plan at exactly its GPU count. `None`
    /// when that plan does not exist here, and always under full search,
    /// whose many candidates [`ThroughputModel::best_plan`] scans.
    pub fn candidate(&self, gpus: u32, global_batch: u32) -> Option<ExecutionPlan> {
        match self {
            PlanSearch::Full => None,
            PlanSearch::DpScale(base) => Self::rescale_dp(base, gpus, global_batch),
            PlanSearch::Fixed(plan) => (plan.gpus() == gpus).then_some(*plan),
        }
    }

    /// The best (plan, predicted throughput) on a placement under this
    /// search mode — `GetBestPlan` of Algorithm 1, restricted per policy.
    ///
    /// Full search delegates to the model's cached, unchecked fast path
    /// ([`ThroughputModel::best_plan`]), which scores every candidate; the
    /// restricted modes score their one [`candidate`](Self::candidate)
    /// through the checked path.
    pub fn best_plan(
        &self,
        model: &ThroughputModel,
        global_batch: u32,
        placement: &Placement,
    ) -> Option<(ExecutionPlan, f64)> {
        if let PlanSearch::Full = self {
            return model.best_plan(global_batch, placement);
        }
        let plan = self.candidate(placement.total_gpus(), global_batch)?;
        let tput = model.throughput(&plan, global_batch, placement).ok()?;
        Some((plan, tput))
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
        // One packed placement rewritten in place per amount. A restricted
        // mode has no plan where it has no candidate, so such an amount
        // returns before the rewrite.
        let mut placement = Placement::packed(0, &model.shape);
        SensitivityCurve::from_fn(max_gpus, |g| {
            if *self != PlanSearch::Full {
                self.candidate(g, global_batch)?;
            }
            placement.set_packed(g, &model.shape);
            self.best_plan(model, global_batch, &placement)
        })
    }
}
