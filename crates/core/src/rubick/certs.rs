//! The in-round skip certificates of the Rubick policy (DESIGN.md §8):
//! predicates that prove a search rolls back, or a visit is a no-op,
//! without walking it. Debug builds walk every skipped search anyway and
//! check that it leaves the state as it was.

use super::ctx::Ctx;
use super::grow::{drop_gpus_to, EPS_SLOPE, MIN_GAIN, SHRINK_HYSTERESIS};
use super::state::State;
use rubick_model::{ExecutionPlan, MemoryMode, Placement};
use rubick_sim::cluster::Allocation;
use rubick_sim::job::{JobId, JobStatus};

#[cfg(test)]
thread_local! {
    /// Searches this thread's rounds skipped on the GPU-reach
    /// certificate.
    pub(super) static REACH_SKIPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Whether the search of job `id` provably rolls back, so
/// [`schedule_job`](super::grow::schedule_job) can skip the walk. Two
/// cases qualify. A job below its GPU minimum that could not reach it
/// with every GPU of the table's [`gpu_reach`](State::gpu_reach) fails the
/// minimum. On a ledger with no free GPU, so does a search whose job
/// cannot take a GPU from any victim ([`takes_no_gpu`]): its walk can add
/// only CPUs and host memory. Without a GPU the grant fails a GPU minimum
/// or has no plan. With GPUs, the job must be running on its snapshot's
/// allocation, whose verdict is certified per job ([`Ctx::skip_cert`]),
/// or on fewer GPUs.
pub(super) fn rolls_back_untouched(ctx: &Ctx<'_>, state: &State<'_>, id: JobId) -> bool {
    let cur = state.get(id);
    let gpus = cur.map_or(0, Allocation::gpus);
    let min_gpus = ctx.minimum(id).gpus;
    if gpus < min_gpus && gpus + state.gpu_reach(ctx) < min_gpus {
        #[cfg(test)]
        REACH_SKIPS.with(|n| n.set(n.get() + 1));
        return true;
    }
    if state.round.free().iter().any(|r| r.gpus > 0) {
        return false;
    }
    if ctx.model(id).is_none() {
        return true;
    }
    let snap = ctx.snap(id);
    let cap_gpus = ctx.cap_gpus(id, snap.status.is_running());
    if cap_gpus == 0 {
        return true;
    }
    let frozen = ctx.is_frozen(id);
    let steal_cap = if frozen { gpus } else { cap_gpus };
    if !takes_no_gpu(ctx, state, id, gpus, steal_cap) {
        return false;
    }
    let Some(cur) = cur.filter(|a| a.gpus() > 0) else {
        // The grant fails a GPU minimum or, holding no GPU, has no plan.
        return true;
    };
    let JobStatus::Running {
        allocation: old_alloc,
        plan: old_plan,
        ..
    } = &snap.status
    else {
        return false;
    };
    if cur == old_alloc {
        return ctx.skip_cert(id, old_alloc, old_plan);
    }
    // An entry that lost only CPUs (to another job's CPU reclaim) can end
    // the walk back at the snapshot's allocation and hit the "nothing
    // changed" keep. A frozen job is never a CPU victim.
    if cur.gpus() >= old_alloc.gpus() {
        debug_assert!(!frozen, "frozen job {id:?} changed without losing a GPU");
        return false;
    }
    churn_guard_rejects(ctx, id, cur, old_alloc, old_plan)
}

/// Whether the walk of running job `id` from `cur` (its snapshot's
/// allocation `old_alloc`, or that allocation less some GPUs), adding only
/// CPUs and host memory, ends in the churn guard's rollback. When the best
/// plan is the same non-offload plan without and with every CPU and memory
/// addition, the walk finds that plan at the same throughput and reclaims
/// no CPU; the guard rejects it unless that throughput, or the envelope
/// shrink's scored with every addition, clears the bar against the
/// snapshot's `old_plan`. No input is the ledger: the shrink only returns
/// GPUs to it, and the bound reads the shrunk layout alone.
pub(super) fn churn_guard_rejects(
    ctx: &Ctx<'_>,
    id: JobId,
    cur: &Allocation,
    old_alloc: &Allocation,
    old_plan: &ExecutionPlan,
) -> bool {
    let Some(model) = ctx.model(id) else {
        return true;
    };
    let lo = cur.to_placement();
    let Some((plan, tput)) = ctx.best_plan(id, &lo) else {
        return false;
    };
    let mut hi = Placement {
        cpus: lo.cpus.max(ctx.cap_cpus(id, ctx.cap_gpus(id, true))),
        host_mem_gb: f64::INFINITY,
        ..lo
    };
    if plan.memory == MemoryMode::ZeroOffload
        || ctx.best_plan(id, &hi).map(|(p, _)| p) != Some(plan)
    {
        return false;
    }
    let mut bound = tput;
    if let Some(curve) = ctx.curve(id) {
        let envelope = curve.value(cur.gpus());
        if envelope > tput * 1.005 {
            if let Some(target) = curve.min_amount_reaching(envelope) {
                // The walk only appends nodes without GPUs, so it shrinks
                // the same GPU layout.
                let mut shrunk = cur.clone();
                drop_gpus_to(&mut shrunk, target, |_| {});
                hi.gpus_per_node = shrunk.to_placement().gpus_per_node;
                if let Some((_, shrunk)) = ctx.best_plan(id, &hi) {
                    bound = bound.max(shrunk);
                }
            }
        }
    }
    let old_tput = model
        .throughput(
            old_plan,
            ctx.snap(id).spec.global_batch,
            &old_alloc.to_placement(),
        )
        .unwrap_or(0.0);
    bound < old_tput * (1.0 + MIN_GAIN)
}

/// Whether a walk for job `id`, holding `gpus` GPUs under a steal cap of
/// `steal_cap`, takes no GPU from any victim. It mirrors the steal loop of
/// [`grow_job`](super::grow::grow_job) on a ledger with no free GPU, where
/// the job's GPU count and gain stay fixed until a GPU moves. The loop
/// then takes one exactly when some node's lowest victim passes the slope
/// bar, which holds exactly when the table's victim floor does.
fn takes_no_gpu(ctx: &Ctx<'_>, state: &State<'_>, id: JobId, gpus: u32, steal_cap: u32) -> bool {
    if gpus >= steal_cap {
        return true;
    }
    let below_min = gpus < ctx.minimum(id).gpus;
    let gain = ctx.jump_gain(id, gpus);
    if !below_min && gain <= EPS_SLOPE {
        return true;
    }
    state
        .victim_floor(ctx)
        .is_none_or(|floor| !below_min && floor >= gain * SHRINK_HYSTERESIS)
}
