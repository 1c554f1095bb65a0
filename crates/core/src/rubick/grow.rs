//! `ScheduleJob` of Algorithm 1 (lines 6–23): grow one job from free
//! resources and, where the slopes justify it, from the least sensitive
//! other jobs, then pick its plan (`GetBestPlan`) and size its host
//! memory (`AllocMem`).

use super::certs::rolls_back_untouched;
use super::ctx::Ctx;
#[cfg(debug_assertions)]
use super::state::same_state;
use super::state::State;
use rubick_model::{ExecutionPlan, MemoryMode, Placement, ResourceDemand, Resources};
use rubick_sim::cluster::Allocation;
use rubick_sim::job::{JobId, JobStatus};

/// CPU transfer unit `Δr` (GPUs move one at a time).
pub(super) const CPU_DELTA: u32 = 4;
/// Slope below this is treated as "no benefit from more of this resource".
pub(super) const EPS_SLOPE: f64 = 1e-9;
/// Hysteresis on the shrink decision: a transfer needs the victim's loss
/// slope to be *clearly* below the grower's gain slope, otherwise pairs of
/// jobs with near-equal slopes flap resources back and forth, paying a
/// checkpoint-resume penalty on every swing.
pub(super) const SHRINK_HYSTERESIS: f64 = 0.45;
/// Minimum predicted relative throughput gain to justify reconfiguring a
/// running job (churn guard on top of the penalty gate).
pub(super) const MIN_GAIN: f64 = 0.15;

/// `ScheduleJob` of Algorithm 1: one search for job `id`, kept or rolled
/// back as a whole, or skipped when it provably rolls back. Debug builds
/// walk every skipped search on a copy and check that it leaves the state
/// as it was.
pub(super) fn schedule_job(ctx: &Ctx<'_>, state: &mut State<'_>, id: JobId) {
    if rolls_back_untouched(ctx, state, id) {
        #[cfg(debug_assertions)]
        {
            let mut walked = state.clone();
            walked.begin();
            if !grow_job(ctx, &mut walked, id) {
                walked.rollback();
            }
            assert!(same_state(state, &walked), "inexact skip of {id:?}");
        }
        return;
    }
    state.begin();
    #[cfg(debug_assertions)]
    let before = state.clone();
    if grow_job(ctx, state, id) {
        state.keep();
    } else {
        state.rollback();
        #[cfg(debug_assertions)]
        assert!(same_state(&before, state), "inexact rollback of {id:?}");
    }
}

/// The search of `ScheduleJob`: grow `id` using free resources and, where
/// justified by slopes, resources reclaimed from the least sensitive jobs.
/// Returns whether to keep the attempt; [`schedule_job`] rolls it back
/// otherwise.
pub(super) fn grow_job(ctx: &Ctx<'_>, state: &mut State<'_>, id: JobId) -> bool {
    // The reconfiguration-penalty gate (§5.2) deters churn, but it must not
    // hard-block a clear win: a gated job may still absorb *free* capacity
    // (no victims disturbed) when the predicted saving clears a stricter
    // amortization bar — see the commit guard below.
    let frozen = ctx.is_frozen(id);
    let snap = ctx.snap(id);
    let Some(model) = ctx.model(id) else {
        return false;
    };

    let mut tentative = state.get(id).cloned().unwrap_or_default();
    let minimum = ctx.minimum(id);
    // Stealing is restricted further than the caps: jobs whose penalty
    // gate is active may only absorb free capacity.
    let cap_gpus = ctx.cap_gpus(id, snap.status.is_running());
    let steal_cap_gpus = if frozen { tentative.gpus() } else { cap_gpus };
    if cap_gpus == 0 {
        return false;
    }
    let cap_cpus = ctx.cap_cpus(id, cap_gpus);
    let cap_mem = ctx
        .estimator
        .host_mem_gb(
            &snap.spec.model,
            &ExecutionPlan::zero_offload(cap_gpus.max(1)),
        )
        .max(snap.spec.requested.mem_gb);

    // Node order: nodes the job already occupies first (consolidation),
    // then descending free GPUs.
    let mut order: Vec<usize> = (0..state.round.free().len()).collect();
    order.sort_by_key(|&n| {
        let mine = tentative.node(n).map_or(0, |r| r.gpus);
        (
            std::cmp::Reverse(mine),
            std::cmp::Reverse(state.round.free()[n].gpus),
            n,
        )
    });

    for n in order {
        let total = tentative.total();
        if total.gpus >= cap_gpus && total.cpus >= cap_cpus.min(total.gpus * 2 + 1) {
            break;
        }
        // Grab free resources (capped at what the job can use).
        let avail = state.round.free()[n];
        let take = Resources::new(
            cap_gpus.saturating_sub(total.gpus).min(avail.gpus),
            cap_cpus.saturating_sub(total.cpus).min(avail.cpus),
            (cap_mem - total.mem_gb).clamp(0.0, avail.mem_gb),
        );
        if take.any_positive() {
            state.round.free_mut()[n] -= take;
            tentative.add(n, take);
        }
        // Reclaim GPUs from the least sensitive job on this node
        // (`GetLowestSlopeOverMinJob`). The reconfiguration-penalty gate
        // deliberately does NOT protect victims here. The gate (§5.2)
        // limits how often a job reconfigures *for its own benefit*; being
        // shrunk by a higher-slope job or preempted for an SLA is a
        // scheduler decision the victim cannot veto (best-effort jobs "can
        // be preempted by the system", §5.1). Churn is bounded instead by
        // the slope comparison itself: a transfer only happens when it
        // increases total normalized throughput.
        loop {
            let gpus_now = tentative.gpus();
            if gpus_now >= steal_cap_gpus {
                break;
            }
            let below_min = gpus_now < minimum.gpus;
            let my_gain = ctx.jump_gain(id, gpus_now);
            if !below_min && my_gain <= EPS_SLOPE {
                break;
            }
            let Some((victim, loss)) = lowest_loss_victim(state, id, |cand, alloc| {
                let on_node = alloc.node(n).is_some_and(|r| r.gpus > 0);
                on_node.then(|| victim_loss(ctx, cand, alloc)).flatten()
            }) else {
                break;
            };
            if below_min || loss < my_gain * SHRINK_HYSTERESIS {
                transfer_gpu(state, victim, n, &mut tentative);
            } else {
                break;
            }
        }
        // Reclaim CPUs similarly (relevant for offload-bound jobs).
        if ctx.config.resource_realloc {
            reclaim_cpus(ctx, state, n, id, &mut tentative, cap_cpus);
        }
    }

    // ---- accept or roll back -------------------------------------------
    let total = tentative.total();
    if tentative.is_empty() || !total.dominates(&minimum) {
        return false;
    }
    let placement = tentative.to_placement();
    let Some((mut plan, mut tput)) = ctx.best_plan(id, &placement) else {
        return false;
    };

    // If some grabbed GPUs are useless (invalid plan sizes), return them.
    if let Some(curve) = ctx.curve(id) {
        let envelope = curve.value(total.gpus);
        if envelope > tput * 1.005 {
            if let Some(target) = curve.min_amount_reaching(envelope) {
                let free = state.round.free_mut();
                drop_gpus_to(&mut tentative, target, |n| {
                    free[n] += Resources::new(1, 0, 0.0)
                });
                let placement = tentative.to_placement();
                if let Some((p2, t2)) = ctx.best_plan(id, &placement) {
                    plan = p2;
                    tput = t2;
                }
            }
        }
    }

    // AllocMem: trim CPUs and memory to the chosen plan's demand.
    let demand = ctx
        .estimator
        .demand(&snap.spec.model, &plan, snap.spec.global_batch);
    let free = state.round.free_mut();
    trim_to_demand(&mut tentative, &demand, |n, back| free[n] += back);

    // Churn guard for running jobs: only reconfigure for a real gain.
    if let JobStatus::Running {
        allocation: old_alloc,
        plan: old_plan,
        ..
    } = &snap.status
    {
        if *old_alloc == tentative && *old_plan == plan {
            // Nothing changed. With no victim touched and the table entry
            // already equal, roll back: the ledger's grab-then-trim round
            // trip of `f64` host memory need not be bit-exact. Otherwise
            // keep, preserving any shrinks made to other jobs (they were
            // justified by slope comparisons).
            if state.no_victim_touched() && state.get(id) == Some(&tentative) {
                return false;
            }
            state.insert(id, tentative);
            return true;
        }
        let old_tput = model
            .throughput(old_plan, snap.spec.global_batch, &old_alloc.to_placement())
            .unwrap_or(0.0);
        if tput < old_tput * (1.0 + MIN_GAIN) {
            return false;
        }
        // Amortization: the upgrade must save more wall-clock over the
        // job's remaining work than the checkpoint-resume it costs (plus
        // one victim restart's worth of slack). Jobs whose penalty gate is
        // active face a stricter bar — only clear wins restart them.
        let samples_left = snap.remaining_batches * snap.spec.global_batch as f64;
        if old_tput > 0.0 && tput > 0.0 {
            let saved = samples_left / old_tput - samples_left / tput;
            let bar = if frozen { 5.0 } else { 2.0 };
            if saved < bar * snap.spec.checkpoint_resume_secs() {
                return false;
            }
        }
    }

    state.insert(id, tentative);
    state.mark_changed(id);
    true
}

/// The table entry other than `id` with the lowest loss among those
/// `loss` admits (`None` rules an entry out), with that loss. Ties go to
/// the first in job-id order.
fn lowest_loss_victim(
    state: &State<'_>,
    id: JobId,
    mut loss: impl FnMut(JobId, &Allocation) -> Option<f64>,
) -> Option<(JobId, f64)> {
    state
        .entries()
        .filter(|&(cand, ..)| cand != id)
        .filter_map(|(cand, _, alloc)| Some((cand, loss(cand, alloc)?)))
        .reduce(|best, next| if next.1 < best.1 { next } else { best })
}

/// The normalized loss slope of taking one GPU from `cand`, or `None` when
/// it cannot be a victim: it cannot shrink, or it is about to finish. The
/// steal loop and the victim floor both filter through here.
pub(super) fn victim_loss(ctx: &Ctx<'_>, cand: JobId, alloc: &Allocation) -> Option<f64> {
    let gpus = alloc.gpus();
    if !ctx.can_shrink(cand, gpus) {
        return None;
    }
    // A victim about to finish will release everything shortly; a
    // restart would cost more GPU-time than the transfer recovers.
    let c_snap = ctx.snap(cand);
    if let JobStatus::Running { throughput, .. } = &c_snap.status {
        let remaining_secs =
            c_snap.remaining_batches * c_snap.spec.global_batch as f64 / throughput.max(1e-9);
        if remaining_secs < 3.0 * c_snap.spec.checkpoint_resume_secs() {
            return None;
        }
    }
    Some(ctx.loss_slope(cand, gpus))
}

/// Moves one GPU (with a proportional CPU share) from `victim`'s grant on
/// node `n` into `tentative`.
fn transfer_gpu(state: &mut State<'_>, victim: JobId, n: usize, tentative: &mut Allocation) {
    let alloc = state.victim_mut(victim);
    let entry = alloc.node_mut(n).expect("victim on node");
    let cpus_per_gpu = (entry.cpus / entry.gpus.max(1)).min(entry.cpus);
    entry.gpus -= 1;
    entry.cpus -= cpus_per_gpu;
    let moved = Resources::new(1, cpus_per_gpu, 0.0);
    alloc.per_node.retain(|(_, r)| r.any_positive());
    state.mark_changed(victim);
    tentative.add(n, moved);
}

/// CPU reclamation on node `n` for job `id` under its current tentative
/// plan, driven by direct model slope comparisons.
fn reclaim_cpus(
    ctx: &Ctx<'_>,
    state: &mut State<'_>,
    n: usize,
    id: JobId,
    tentative: &mut Allocation,
    cap_cpus: u32,
) {
    // Only bother when the job has GPUs on this node already.
    if tentative.node(n).is_none_or(|r| r.gpus == 0) {
        return;
    }
    for _ in 0..8 {
        let total = tentative.total();
        if total.cpus >= cap_cpus {
            break;
        }
        let placement = tentative.to_placement();
        let Some((plan, _)) = ctx.best_plan(id, &placement) else {
            break;
        };
        // Only ZeRO-Offload plans read `cpus`, so any other plan's CPU gain
        // is exactly 0 and the gain check below would stop here anyway.
        if plan.memory != MemoryMode::ZeroOffload {
            break;
        }
        let my_gain = ctx.cpu_slope(id, &plan, &placement).unwrap_or(0.0);
        if my_gain <= EPS_SLOPE {
            break;
        }
        // Lowest CPU-loss victim on the node; frozen jobs keep their CPUs.
        let Some((victim, loss)) = lowest_loss_victim(state, id, |cand, alloc| {
            let on_node = alloc.node(n).map_or(0, |r| r.cpus);
            let total = alloc.total().cpus;
            if ctx.is_frozen(cand)
                || on_node < CPU_DELTA
                || total < ctx.minimum(cand).cpus + CPU_DELTA
            {
                return None;
            }
            let plan = ctx.snap(cand).plan()?;
            let fewer = Placement {
                cpus: total - CPU_DELTA,
                ..alloc.to_placement()
            };
            // The step down from a last `CPU_DELTA` loses everything.
            let slope = (fewer.cpus > 0).then(|| ctx.cpu_slope(cand, plan, &fewer));
            Some(slope.flatten().unwrap_or(f64::INFINITY))
        }) else {
            break;
        };
        if loss >= my_gain * SHRINK_HYSTERESIS {
            break;
        }
        let entry = state
            .victim_mut(victim)
            .node_mut(n)
            .expect("victim on node");
        entry.cpus -= CPU_DELTA;
        state.mark_changed(victim);
        tentative.add(n, Resources::new(0, CPU_DELTA, 0.0));
    }
}

/// Drops GPUs above `target` from `tentative`, smallest per-node grants
/// first (consolidation), calling `freed` with each dropped GPU's node.
pub(super) fn drop_gpus_to(tentative: &mut Allocation, target: u32, mut freed: impl FnMut(usize)) {
    while tentative.gpus() > target {
        // Drop from the node entry with the fewest GPUs.
        let Some(idx) = tentative
            .per_node
            .iter()
            .enumerate()
            .filter(|(_, (_, r))| r.gpus > 0)
            .min_by_key(|(_, (_, r))| r.gpus)
            .map(|(i, _)| i)
        else {
            break;
        };
        let node = tentative.per_node[idx].0;
        tentative.per_node[idx].1.gpus -= 1;
        freed(node);
        tentative.per_node.retain(|(_, r)| r.any_positive());
    }
}

/// `AllocMem` (lines 19–23): size the job's CPU and host-memory grant to
/// the chosen plan's demand, calling `freed` with each node's returned
/// CPUs, then its returned host memory.
pub(super) fn trim_to_demand(
    tentative: &mut Allocation,
    demand: &ResourceDemand,
    mut freed: impl FnMut(usize, Resources),
) {
    let total = tentative.total();
    let mut excess_cpus = total.cpus.saturating_sub(demand.cpus.max(1));
    let mut excess_mem = (total.mem_gb - demand.host_mem_gb.max(1.0)).max(0.0);
    for (node, res) in tentative.per_node.iter_mut() {
        if excess_cpus > 0 {
            let back = excess_cpus.min(res.cpus.saturating_sub(res.gpus)); // keep ≥1 cpu/gpu
            res.cpus -= back;
            freed(*node, Resources::new(0, back, 0.0));
            excess_cpus -= back;
        }
        if excess_mem > 0.0 {
            let back = excess_mem.min(res.mem_gb);
            res.mem_gb -= back;
            freed(*node, Resources::new(0, 0, back));
            excess_mem -= back;
        }
    }
    tentative.per_node.retain(|(_, r)| r.any_positive());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testing::{job, snapshot};
    use crate::common::{JobCache, JobIndex};
    use crate::registry::ModelRegistry;
    use crate::rubick::ctx::build_job_parts;
    use crate::rubick::state::RoundBuffers;
    use crate::rubick::RubickConfig;
    use rubick_model::{BestPlanMemo, MemoryEstimator, ModelSpec, NodeShape};
    use rubick_sim::cluster::Cluster;
    use rubick_sim::job::{JobClass, JobSpec};
    use rubick_sim::scheduler::JobSnapshot;
    use rubick_testbed::TestbedOracle;
    use std::cell::RefCell;

    /// An offload-bound LLaMA-2 job (1) grows its CPUs one reclaim step at
    /// a time beside three best-effort neighbours on one node: a frozen
    /// RoBERTa (2), a LLaMA-2 on ZeRO-Offload (3), whose CPU loss is
    /// positive, and a RoBERTa (4) whose DP plan reads no CPU, so its loss
    /// is zero. Id order alone would pick job 2, then job 3.
    #[test]
    fn reclaim_takes_cpu_steps_from_the_lowest_loss_unfrozen_neighbour() {
        let oracle = TestbedOracle::new(23);
        let (llama, roberta) = (ModelSpec::llama2_7b(), ModelSpec::roberta_large());
        let reg = ModelRegistry::from_oracle(&oracle, &[llama.clone(), roberta.clone()]).unwrap();
        let (offload, dp) = (ExecutionPlan::zero_offload(1), ExecutionPlan::dp(2));
        // (id, model, plan, CPUs, runtime): 100 s of runtime is far below
        // the penalty gate's share.
        let jobs = [
            (1, &llama, offload, 12, 0.0),
            (2, &roberta, dp, 24, 100.0),
            (3, &llama, offload, 24, 0.0),
            (4, &roberta, dp, 24, 0.0),
        ]
        .map(|(id, model, plan, cpus, runtime)| {
            let spec = job(id, model.clone(), plan.gpus(), plan, 1_000_000);
            let spec = JobSpec {
                class: JobClass::BestEffort,
                ..spec
            };
            let grant = Resources::new(plan.gpus(), cpus, 200.0);
            let status = JobStatus::Running {
                allocation: Allocation::on_node(0, grant),
                plan,
                throughput: 1.0,
                resume_at: 0.0,
            };
            JobSnapshot {
                runtime,
                ..snapshot(spec, status)
            }
        });

        let cfg = RubickConfig::default();
        let cluster = Cluster::new(1, NodeShape::a800());
        let total_gpus = cluster.schedulable_capacity().gpus;
        let estimator = MemoryEstimator::new(cluster.shape().gpu_mem_gb);
        let mut index = JobIndex::default();
        index.rebuild(&jobs);
        let (mut memo, mut cache) = (BestPlanMemo::new(), JobCache::default());
        let entries = cache.refresh(&reg, total_gpus, &jobs, |snap| {
            build_job_parts(&reg, &cfg, snap, total_gpus, estimator, &mut memo)
        });
        let frozen = jobs
            .each_ref()
            .map(|s| !s.reconfig_allowed(cfg.reconfig_threshold));
        assert_eq!(frozen, [false, true, false, false]);
        let ctx = Ctx {
            config: &cfg,
            index: &index,
            jobs: &jobs,
            entries,
            memo: RefCell::new(&mut memo),
            frozen: &frozen,
            estimator,
            total_gpus,
        };
        let mut state = State::new(&cluster, &jobs, &index, &mut RoundBuffers::default());
        let cpus = |state: &State<'_>| {
            jobs.each_ref()
                .map(|s| state.get(s.id()).unwrap().total().cpus)
        };

        // One step per call: the cap sits one `CPU_DELTA` above the grant.
        state.begin();
        let mut tentative = state.get(1).cloned().unwrap();
        let mut steps = Vec::new();
        for _ in 0..10 {
            let (had, before) = (tentative.total().cpus, cpus(&state));
            reclaim_cpus(&ctx, &mut state, 0, 1, &mut tentative, had + CPU_DELTA);
            let lost: Vec<_> = (1..)
                .zip(before.iter().zip(cpus(&state)))
                .filter(|(_, (b, a))| **b != *a)
                .map(|(id, (b, a))| (id, b - a))
                .collect();
            if lost.is_empty() {
                break;
            }
            steps.push((tentative.total().cpus - had, lost));
        }
        // Job 4 gives CPU steps down to its last `CPU_DELTA`, whose loss
        // counts as infinite; job 3 gives none, and frozen job 2 none.
        assert_eq!(steps, vec![(CPU_DELTA, vec![(4, CPU_DELTA)]); 5]);

        // A search that rolls back restores every victim's CPUs.
        state.rollback();
        for snap in &jobs {
            assert_eq!(state.get(snap.id()), snap.allocation(), "job {}", snap.id());
        }
    }
}
