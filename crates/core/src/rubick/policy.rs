//! The per-round scheduling logic of Algorithm 1: the SLA pass (lines
//! 2–3), the slope-ordered pass (lines 4–5) and the final assignment list.
//! Each pass hands its jobs to [`schedule_job`], the `ScheduleJob` search
//! of [`grow`](super::grow).

use super::ctx::{build_job_parts, Ctx};
use super::dirty::{Classification, Epoch};
use super::grow::{drop_gpus_to, schedule_job, trim_to_demand, MIN_GAIN};
#[cfg(debug_assertions)]
use super::state::same_state;
use super::state::State;
use super::RubickScheduler;
use crate::common::JobIndex;
use rubick_model::{MemoryEstimator, Resources};
use rubick_sim::cluster::{Allocation, Cluster};
use rubick_sim::job::{JobClass, JobId, JobStatus};
use rubick_sim::scheduler::{Assignment, JobSnapshot, RoundStats};
use rubick_sim::tenant::Tenant;
use std::cell::RefCell;

/// Queueing delay after which a best-effort job is scheduled with priority
/// to prevent starvation, seconds.
const STARVATION_TIMEOUT: f64 = 1200.0;

/// Entry point called from [`Scheduler::schedule`](rubick_sim::Scheduler).
pub(super) fn run_round(
    sched: &mut RubickScheduler,
    now: f64,
    jobs: &[JobSnapshot],
    cluster: &Cluster,
    tenants: &[Tenant],
) -> Vec<Assignment> {
    let RubickScheduler {
        ref registry,
        config: ref cfg,
        ref mut tracker,
        ref mut index,
        ref mut plan_memo,
        ref mut cache,
        ref mut buffers,
    } = *sched;
    let total_gpus = cluster.schedulable_capacity().gpus;

    // The round's one id → position map, shared by the tracker, the state
    // and the context.
    index.rebuild(jobs);
    let index = &*index;

    // ---- initial state: current allocations applied --------------------
    // Built before classification: the ledger check (and with it the fast
    // path) only needs the post-charge free vector, which is cheap.
    let mut state = State::new(cluster, jobs, index, buffers);

    // ---- incremental classification (dirty-set planning, §see DESIGN 11)
    // Fingerprint every job's planning inputs and compare against the end
    // of the previous round. The epoch embeds the registry version, so a
    // refit published since the last round (by the engine's refit hook)
    // invalidates every certificate at once; it embeds the node capacities
    // too, so a node going down or up does the same. A ledger that differs
    // from the projected one demotes every clean job. When every job is
    // clean, the previous round was quiet and the ledger is bit-identical,
    // the whole round is provably a verbatim re-emit.
    let epoch_now = cfg.incremental.then(|| Epoch {
        registry_version: registry.version(),
        node_caps: cluster
            .nodes()
            .iter()
            .map(|n| n.schedulable_capacity())
            .collect(),
        tenants: tenants.to_vec(),
    });
    let cls: Option<Classification> = epoch_now
        .as_ref()
        .map(|e| tracker.classify(jobs, index, e, state.round.free(), cfg.reconfig_threshold));
    if let Some(c) = cls.as_ref().filter(|c| c.fast_eligible()) {
        let classified = c.classified;
        state.finish(buffers);
        return tracker.fast_path(jobs, classified);
    }

    // ---- build round context ------------------------------------------
    // Every round, incremental or full, builds the epoch-stable parts
    // (curve, caps, norm, minimum demand) only of the jobs the cache does
    // not hold. One estimator (a cheap `Copy` of the GPU memory capacity)
    // serves every minimum-demand search and the allocation passes below.
    let estimator = MemoryEstimator::new(cluster.shape().gpu_mem_gb);
    let entries = cache.refresh(registry, total_gpus, jobs, |snap| {
        build_job_parts(registry, cfg, snap, total_gpus, estimator, plan_memo)
    });
    // The penalty gate reads the job's accumulated runtime, which grows
    // every round — never cached.
    buffers.frozen.clear();
    buffers.frozen.extend(
        jobs.iter()
            .map(|s| s.status.is_running() && !s.reconfig_allowed(cfg.reconfig_threshold)),
    );
    let ctx = Ctx {
        config: cfg,
        index,
        jobs,
        entries,
        memo: RefCell::new(plan_memo),
        frozen: &buffers.frozen,
        estimator,
        total_gpus,
    };

    let cls = cls.as_ref();
    let mut searched: u64 = 0;
    let mut running_searched: u64 = 0;

    // ---- pass 1: privileged guaranteed jobs within quota ---------------
    let guaranteed = |s: &JobSnapshot| s.spec.class == JobClass::Guaranteed;
    for snap in state.round.queued_fifo(guaranteed) {
        let id = snap.id();
        let visit = |state: &mut State<'_>| {
            let allowed = quota_allows(&ctx, state, tenants, id);
            if allowed {
                schedule_job(&ctx, state, id);
            }
            allowed
        };
        if !tracker_skips(cls, index, &state, id, visit) && visit(&mut state) {
            searched += 1;
        }
    }

    // ---- pass 1b: starving best-effort jobs get priority ---------------
    let starving = |s: &JobSnapshot| {
        s.spec.class == JobClass::BestEffort && now - s.queued_since > STARVATION_TIMEOUT
    };
    for snap in state.round.queued_fifo(starving) {
        let id = snap.id();
        if !tracker_skips(cls, index, &state, id, |s| schedule_job(&ctx, s, id)) {
            searched += 1;
            schedule_job(&ctx, &mut state, id);
        }
    }

    // ---- pass 2: best-effort + running, sorted by slope ----------------
    // Sort by jump-aware slope with queue aging: a job's priority rises as
    // it waits, smoothly generalizing the hard starvation promotion so
    // large lumpy-curve jobs (low slope-per-GPU) still get scheduled.
    // Keys are computed once per job, not per comparison: each is a curve
    // query.
    let rest = &mut buffers.rest;
    rest.clear();
    rest.extend(jobs.iter().enumerate().filter_map(|(pos, s)| {
        let held = state.at(pos);
        // Queued jobs already admitted by the privileged/starvation passes
        // hold an allocation in `state` and are done this round.
        let waiting =
            s.status.is_queued() && s.spec.class == JobClass::BestEffort && held.is_none();
        if !waiting && !s.status.is_running() {
            return None;
        }
        let slope = ctx.jump_gain(s.id(), held.map_or(0, Allocation::gpus));
        let age = if waiting {
            (now - s.queued_since).max(0.0) / STARVATION_TIMEOUT
        } else {
            0.0
        };
        Some((slope * (1.0 + age), s.id()))
    }));
    rest.sort_by(|(pa, a), (pb, b)| pb.total_cmp(pa).then(a.cmp(b)));
    for &(_, id) in rest.iter() {
        if tracker_skips(cls, index, &state, id, |s| schedule_job(&ctx, s, id)) {
            continue;
        }
        searched += 1;
        if ctx.snap(id).status.is_running() {
            running_searched += 1;
        }
        schedule_job(&ctx, &mut state, id);
    }

    // ---- emit assignments ----------------------------------------------
    // Quietness is judged *before* emit (emit only reads the table): a
    // round with no changed entry left the state bit-identical to its
    // start, which is exactly what next round's clean certificates
    // need.
    let quiet = !state.any_changed();
    let out = emit(&ctx, &state);

    // ---- record incremental memory for the next round -------------------
    if let (Some(c), Some(e)) = (cls, epoch_now) {
        let running_total = jobs.iter().filter(|s| s.status.is_running()).count() as u64;
        tracker.set_stats(RoundStats {
            dirty: c.dirty_len(),
            clean: c.clean_len(),
            reused: running_total.saturating_sub(running_searched),
            searched,
            classified: c.classified,
        });
        tracker.record(jobs, &out, e, quiet, cfg.reconfig_threshold);
    }
    state.finish(buffers);
    out
}

/// Whether the tracker skips job `id`'s visit: a clean job skips only
/// while nothing has mutated the round state yet. The first lasting
/// mutation voids every positional no-op certificate, and all later jobs
/// are searched exactly as in a full round. Debug builds run `visit`, the
/// visit the pass would have made, on a copy and check that it leaves the
/// state as it was.
fn tracker_skips<'a, R>(
    cls: Option<&Classification>,
    index: &JobIndex,
    state: &State<'a>,
    id: JobId,
    visit: impl FnOnce(&mut State<'a>) -> R,
) -> bool {
    let skip = !state.any_changed() && cls.is_some_and(|c| c.clean(index.pos(id)));
    #[cfg(debug_assertions)]
    if skip {
        let mut walked = state.clone();
        visit(&mut walked);
        assert!(
            same_state(state, &walked),
            "tracker skip of {id:?} is not a no-op"
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = visit;
    skip
}

/// Remaining-quota check for a guaranteed job: the sum of minimum demands
/// of this tenant's already-assigned guaranteed jobs plus this job's must
/// fit the quota. Unknown tenants are unconstrained.
fn quota_allows(ctx: &Ctx<'_>, state: &State<'_>, tenants: &[Tenant], id: JobId) -> bool {
    let snap = ctx.snap(id);
    let Some(tenant) = tenants.iter().find(|t| t.id == snap.spec.tenant) else {
        return true;
    };
    let mut used = Resources::zero();
    for (other, _, alloc) in state.entries() {
        if other == id || alloc.is_empty() {
            continue;
        }
        let o = ctx.snap(other);
        if o.spec.class == JobClass::Guaranteed && o.spec.tenant == snap.spec.tenant {
            used += ctx.minimum(other);
        }
    }
    let want = ctx.minimum(id);
    tenant.quota.dominates(&(used + want))
}

/// Builds the final assignment list: recompute plans for changed jobs,
/// reproduce current configs verbatim for untouched ones. Nothing reads
/// the ledger after the passes, so the GPUs, CPUs and memory the trims
/// return go nowhere.
fn emit(ctx: &Ctx<'_>, state: &State<'_>) -> Vec<Assignment> {
    let mut out = Vec::new();
    for (id, pos, alloc) in state.entries() {
        if alloc.is_empty() {
            continue;
        }
        let snap = &ctx.jobs[pos];
        if !state.changed(pos) {
            if let JobStatus::Running {
                allocation, plan, ..
            } = &snap.status
            {
                out.push(Assignment {
                    job: id,
                    allocation: allocation.clone(),
                    plan: *plan,
                });
                continue;
            }
        }
        let Some(model) = ctx.model(id) else {
            continue;
        };
        let mut alloc = alloc.clone();
        let placement = alloc.to_placement();
        let best = ctx.best_plan(id, &placement).or_else(|| {
            // The exact GPU count has no valid plan (common under
            // DP-rescaling, whose valid counts are sparse): trim the
            // allocation down to the largest runnable amount instead of
            // preempting the job outright.
            let curve = ctx.curve(id)?;
            let (plan, _) = curve.best_plan_at(alloc.gpus())?;
            drop_gpus_to(&mut alloc, plan.gpus(), |_| {});
            ctx.best_plan(id, &alloc.to_placement())
        });
        let Some((plan, _)) = best else {
            // Genuinely no feasible plan: preempt to queue.
            continue;
        };
        // Keep the current plan when it performs within the churn guard on
        // unchanged resources (avoids checkpoint thrash on plan ties).
        let plan = match &snap.status {
            JobStatus::Running {
                allocation: old_alloc,
                plan: old_plan,
                ..
            } if *old_alloc == alloc => {
                let new = model
                    .throughput(&plan, snap.spec.global_batch, &placement)
                    .unwrap_or(0.0);
                let old = model
                    .throughput(old_plan, snap.spec.global_batch, &placement)
                    .unwrap_or(0.0);
                if new > old * (1.0 + MIN_GAIN)
                    && snap.reconfig_allowed(ctx.config.reconfig_threshold)
                {
                    plan
                } else {
                    *old_plan
                }
            }
            _ => plan,
        };
        // Memory trim for changed victims.
        let demand = ctx
            .estimator
            .demand(&snap.spec.model, &plan, snap.spec.global_batch);
        trim_to_demand(&mut alloc, &demand, |_, _| {});
        if alloc.is_empty() {
            continue;
        }
        out.push(Assignment {
            job: id,
            allocation: alloc,
            plan,
        });
    }
    out
}

#[cfg(test)]
mod tests;
