//! Policy building blocks shared by Rubick and the baselines.
//!
//! * [`PlanSearch`] (defined in `rubick-model`, re-exported here) — how a
//!   policy is allowed to (re)configure execution plans: full
//!   reconfiguration (Rubick), Sia-style DP rescaling (Sia, Rubick-R), or a
//!   frozen plan (Synergy, AntMan, Rubick-N). Job curves under any mode come
//!   from [`ModelRegistry::gpu_curve`].
//! * [`pack_gang`] — the placement primitive: turn "this job should get
//!   these totals" into a per-node [`Allocation`] against free capacity.
//! * [`job_baseline`] — a job's SLA baseline derived from the registry's
//!   fitted models.

use crate::registry::ModelRegistry;
use rubick_model::prelude::*;
pub use rubick_model::PlanSearch;
use rubick_sim::cluster::Allocation;
use rubick_sim::scheduler::JobSnapshot;

/// Packs a resource total onto the cluster's free capacity.
///
/// Strategy (matching how gang schedulers place jobs):
/// 1. prefer the **best-fit single node** — the node with the least free
///    GPUs that still fits the whole request (minimizes fragmentation and
///    keeps communication on NVLink);
/// 2. otherwise spread over the **fewest nodes**, taking the largest free
///    GPU blocks first.
///
/// CPUs and memory are distributed proportionally to the GPUs taken from
/// each node, capped by that node's free amounts. Returns `None` when the
/// cluster lacks `want.gpus` free GPUs in total.
///
/// ```
/// use rubick_core::pack_gang;
/// use rubick_model::Resources;
///
/// let free = vec![Resources::new(2, 24, 400.0), Resources::new(8, 96, 1600.0)];
/// // 2 GPUs fit on node 0 (best fit), not node 1.
/// let alloc = pack_gang(&free, Resources::new(2, 8, 50.0)).unwrap();
/// assert_eq!(alloc.per_node[0].0, 0);
/// // 10 GPUs must spread across both nodes.
/// let alloc = pack_gang(&free, Resources::new(10, 40, 100.0)).unwrap();
/// assert_eq!(alloc.gpus(), 10);
/// assert_eq!(alloc.per_node.len(), 2);
/// ```
pub fn pack_gang(free: &[Resources], want: Resources) -> Option<Allocation> {
    if want.gpus == 0 {
        // A CPU-only grant goes to the single node with the most free CPUs.
        let (node, f) = free.iter().enumerate().max_by_key(|(_, f)| f.cpus)?;
        return Some(Allocation::on_node(
            node,
            Resources::new(0, want.cpus.min(f.cpus), want.mem_gb.min(f.mem_gb)),
        ));
    }
    let total_free: u32 = free.iter().map(|f| f.gpus).sum();
    if total_free < want.gpus {
        return None;
    }
    // Best-fit single node.
    if let Some((node, f)) = free
        .iter()
        .enumerate()
        .filter(|(_, f)| f.gpus >= want.gpus)
        .min_by_key(|(_, f)| f.gpus)
    {
        return Some(Allocation::on_node(
            node,
            Resources::new(want.gpus, want.cpus.min(f.cpus), want.mem_gb.min(f.mem_gb)),
        ));
    }
    // Spread: largest free blocks first (fewest nodes involved).
    let mut order: Vec<usize> = (0..free.len()).filter(|&i| free[i].gpus > 0).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(free[i].gpus), i));
    let mut alloc = Allocation::empty();
    let mut left = want.gpus;
    for &i in &order {
        if left == 0 {
            break;
        }
        let take = free[i].gpus.min(left);
        left -= take;
        let frac = take as f64 / want.gpus as f64;
        let cpus = ((want.cpus as f64 * frac).round() as u32).min(free[i].cpus);
        let mem = (want.mem_gb * frac).min(free[i].mem_gb);
        alloc.merge(&Allocation::on_node(i, Resources::new(take, cpus, mem)));
    }
    debug_assert_eq!(left, 0);
    Some(alloc)
}

/// The SLA baseline throughput of a job: its measured admission baseline
/// when available, otherwise the model's prediction for the requested
/// resources with the user's plan.
pub fn job_baseline(registry: &ModelRegistry, snap: &JobSnapshot) -> Option<f64> {
    if let Some(b) = snap.baseline_throughput {
        return Some(b);
    }
    let model = registry.model(&snap.spec.model.name)?;
    let shape = registry.shape();
    let placement = Placement::spread(
        snap.spec.requested.gpus.max(1),
        shape.gpus,
        snap.spec.requested.cpus,
        snap.spec.requested.mem_gb,
    );
    model
        .throughput(&snap.spec.initial_plan, snap.spec.global_batch, &placement)
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescale_dp_keeps_structure() {
        let base = ExecutionPlan::three_d(4, 2, 2, 8);
        let scaled = PlanSearch::rescale_dp(&base, 8, 64).unwrap();
        assert_eq!(scaled.parallel.dp, 2);
        assert_eq!(scaled.parallel.tp, 2);
        assert_eq!(scaled.parallel.pp, 2);
        // Non-multiples of t*p are rejected.
        assert!(PlanSearch::rescale_dp(&base, 6, 64).is_none());
    }

    #[test]
    fn rescale_dp_shrinks_ga_for_small_batches() {
        let base = ExecutionPlan::zero_dp(2).with_ga(8); // 2*8 = 16
        let scaled = PlanSearch::rescale_dp(&base, 8, 16).unwrap();
        assert_eq!(scaled.parallel.dp, 8);
        assert!(scaled.parallel.dp * scaled.ga_steps <= 16);
    }

    #[test]
    fn fixed_search_only_matches_exact_gpus() {
        let plan = ExecutionPlan::dp(4);
        let search = PlanSearch::Fixed(plan);
        assert_eq!(search.candidate(4, 64), Some(plan));
        assert_eq!(search.candidate(8, 64), None);
    }

    #[test]
    fn full_curve_dominates_restricted_curves() {
        let model = ThroughputModel::new(
            ModelSpec::gpt2_xl(),
            PerfParams::default(),
            ClusterEnv::a800(),
            NodeShape::a800(),
        );
        let full = PlanSearch::Full.gpu_curve(&model, 16, 8);
        let dp = PlanSearch::DpScale(ExecutionPlan::dp(1)).gpu_curve(&model, 16, 8);
        for g in 1..=8 {
            assert!(
                full.value(g) >= dp.value(g) - 1e-9,
                "full search must dominate at {g} GPUs"
            );
        }
    }

    #[test]
    fn pack_prefers_best_fit_node() {
        let free = vec![Resources::new(8, 96, 1600.0), Resources::new(3, 36, 600.0)];
        let alloc = pack_gang(&free, Resources::new(2, 8, 50.0)).unwrap();
        assert_eq!(alloc.per_node, vec![(1, Resources::new(2, 8, 50.0))]);
    }

    #[test]
    fn pack_spreads_when_no_single_node_fits() {
        let free = vec![
            Resources::new(4, 48, 800.0),
            Resources::new(4, 48, 800.0),
            Resources::new(2, 24, 400.0),
        ];
        let alloc = pack_gang(&free, Resources::new(8, 32, 200.0)).unwrap();
        assert_eq!(alloc.gpus(), 8);
        assert_eq!(alloc.per_node.len(), 2);
    }

    #[test]
    fn pack_fails_when_insufficient() {
        let free = vec![Resources::new(2, 24, 400.0)];
        assert!(pack_gang(&free, Resources::new(4, 8, 10.0)).is_none());
    }

    #[test]
    fn pack_cpu_only_grant() {
        let free = vec![Resources::new(0, 8, 100.0), Resources::new(0, 32, 100.0)];
        let alloc = pack_gang(&free, Resources::new(0, 16, 10.0)).unwrap();
        assert_eq!(alloc.per_node, vec![(1, Resources::new(0, 16, 10.0))]);
    }
}
