//! The per-round scheduling logic (lines 1–24 of Algorithm 1).

use super::dirty::{CachedParts, Classification, Epoch, JobIndex, Verdict};
use super::RubickScheduler;
use crate::common::{job_baseline, PlanSearch};
use crate::round::{LedgerDelta, RoundContext};
use rubick_model::{
    BestPlanMemo, ExecutionPlan, MemoRow, MemoryEstimator, MemoryMode, Placement, PlanSetCache,
    Resources, SensitivityCurve, ThroughputModel,
};
use rubick_sim::cluster::{Allocation, Cluster};
use rubick_sim::job::{JobClass, JobId, JobStatus};
use rubick_sim::scheduler::{Assignment, JobSnapshot, RoundStats};
use rubick_sim::tenant::Tenant;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// CPU transfer unit `Δr` (GPUs move one at a time).
const CPU_DELTA: u32 = 4;
/// Slope below this is treated as "no benefit from more of this resource".
const EPS_SLOPE: f64 = 1e-9;
/// Hysteresis on the shrink decision: a transfer needs the victim's loss
/// slope to be *clearly* below the grower's gain slope, otherwise pairs of
/// jobs with near-equal slopes flap resources back and forth, paying a
/// checkpoint-resume penalty on every swing.
const SHRINK_HYSTERESIS: f64 = 0.45;

/// Per-round immutable context: snapshots, models, curves, baselines,
/// minima. Stored as dense vectors parallel to the jobs slice, addressed
/// through the round's [`JobIndex`] — per-job probes are array reads
/// instead of tree walks, which is what keeps 100k-job rounds
/// cache-friendly. The one mutable part is the scheduler's best-plan memo,
/// borrowed for the round.
struct Ctx<'a> {
    sched: &'a RubickScheduler,
    index: JobIndex,
    snaps: Vec<&'a JobSnapshot>,
    models: Vec<Option<Arc<ThroughputModel>>>,
    /// Each job's best-plan memo row, parallel to `models`.
    rows: Vec<Option<MemoRow>>,
    memo: RefCell<&'a mut BestPlanMemo>,
    searches: Vec<PlanSearch>,
    minima: Vec<Resources>,
    baselines: Vec<Option<f64>>,
    curves: Vec<Option<Arc<SensitivityCurve>>>,
    frozen: Vec<bool>,
    estimator: MemoryEstimator,
    total_gpus: u32,
}

/// Mutable round state: the shared [`RoundContext`] ledger plus Rubick's
/// tentative allocation table. Unlike the baselines, Rubick does not
/// commit assignments incrementally — its passes move resources between
/// jobs until the round settles, so it keeps the table here and emits the
/// final list at the end. [`schedule_job`] brackets each search with
/// [`begin`](State::begin) and, when the attempt is not kept,
/// [`rollback`](State::rollback), so a rolled-back search costs only what
/// it touched. Debug builds derive `Clone` to check every rollback
/// against a full copy.
#[cfg_attr(debug_assertions, derive(Clone))]
struct State<'a> {
    round: RoundContext<'a>,
    alloc: BTreeMap<JobId, Allocation>,
    changed: BTreeSet<JobId>,
    undo: Undo,
    /// The table's victim floor once computed (see
    /// [`victim_floor`](State::victim_floor)). Only a kept search can move
    /// a GPU, since a rollback restores the table, so only a keep clears it.
    floor: Cell<Option<Option<f64>>>,
}

/// The undo log of one search. Its buffers are reused across searches, so
/// logging allocates only to copy a victim's allocation.
#[cfg_attr(debug_assertions, derive(Clone))]
#[derive(Default)]
struct Undo {
    /// The free ledger at [`State::begin`].
    free: Vec<Resources>,
    /// Each victim's allocation before the search first mutated it.
    /// Victims are drawn from the table, so each had one.
    victims: Vec<(JobId, Allocation)>,
    /// The ids this search newly inserted into `changed`.
    changed: Vec<JobId>,
}

impl State<'_> {
    /// Opens the undo log for one search.
    fn begin(&mut self) {
        self.undo.free.clear();
        self.undo.free.extend_from_slice(self.round.free());
        self.undo.victims.clear();
        self.undo.changed.clear();
    }

    /// `victim`'s allocation, logged before the search first mutates it.
    fn victim_mut(&mut self, victim: JobId) -> &mut Allocation {
        let alloc = self.alloc.get_mut(&victim).expect("victim allocated");
        if !self.undo.victims.iter().any(|(id, _)| *id == victim) {
            self.undo.victims.push((victim, alloc.clone()));
        }
        alloc
    }

    /// Marks `id` changed, logging the insert if it is new.
    fn mark_changed(&mut self, id: JobId) {
        if self.changed.insert(id) {
            self.undo.changed.push(id);
        }
    }

    /// Restores what [`begin`](State::begin) saw: the ledger, each logged
    /// victim's allocation (re-inserting one whose allocation emptied) and
    /// the `changed` set. The searched job's own entry is written only
    /// when the search is kept, so it needs no log.
    fn rollback(&mut self) {
        self.round.free_mut().copy_from_slice(&self.undo.free);
        for (id, alloc) in self.undo.victims.drain(..) {
            self.alloc.insert(id, alloc);
        }
        for id in self.undo.changed.drain(..) {
            self.changed.remove(&id);
        }
    }

    /// The lowest loss slope of any table entry that
    /// [`lowest_slope_victim`] could pick on some node, or `None` when no
    /// entry qualifies. The searched job's own entry is included: it can
    /// only lower the floor, which keeps every test against it
    /// conservative. Debug builds rescan on every cached read.
    fn victim_floor(&self, ctx: &Ctx<'_>) -> Option<f64> {
        let scan = || {
            self.alloc
                .iter()
                .filter_map(|(id, alloc)| victim_loss(ctx, *id, alloc))
                .reduce(f64::min)
        };
        match self.floor.get() {
            Some(floor) => {
                debug_assert_eq!(
                    floor.map(f64::to_bits),
                    scan().map(f64::to_bits),
                    "stale victim floor"
                );
                floor
            }
            None => {
                let floor = scan();
                self.floor.set(Some(floor));
                floor
            }
        }
    }
}

/// Whether `state` is bit-identical to `before` in the ledger, the
/// allocation table and the `changed` set (debug cross-check of
/// [`State::rollback`]).
#[cfg(debug_assertions)]
fn same_state(before: &State<'_>, state: &State<'_>) -> bool {
    let bits = |r: &Resources| (r.gpus, r.cpus, r.mem_gb.to_bits());
    let key = |s: &State<'_>| {
        let free: Vec<_> = s.round.free().iter().map(bits).collect();
        let table: Vec<(JobId, Vec<_>)> = s
            .alloc
            .iter()
            .map(|(id, a)| (*id, a.per_node.iter().map(|(n, r)| (*n, bits(r))).collect()))
            .collect();
        (free, table, s.changed.clone())
    };
    key(before) == key(state)
}

impl<'a> Ctx<'a> {
    fn idx(&self, id: JobId) -> usize {
        self.index.get(id).expect("job known to round context")
    }

    fn snap(&self, id: JobId) -> &JobSnapshot {
        self.snaps[self.idx(id)]
    }

    fn curve(&self, id: JobId) -> Option<&Arc<SensitivityCurve>> {
        self.curves[self.idx(id)].as_ref()
    }

    fn minimum(&self, id: JobId) -> Resources {
        self.minima[self.idx(id)]
    }

    fn model(&self, id: JobId) -> Option<&ThroughputModel> {
        self.models[self.idx(id)].as_deref()
    }

    /// `GetBestPlan` for job `id` on `placement` under its search mode.
    /// Full search goes through the job's row of the round's memo; the
    /// restricted modes score at most one candidate and keep the checked
    /// path.
    fn best_plan(&self, id: JobId, placement: &Placement) -> Option<(ExecutionPlan, f64)> {
        let pos = self.idx(id);
        let model = self.models[pos].as_deref()?;
        let batch = self.snaps[pos].spec.global_batch;
        match &self.searches[pos] {
            PlanSearch::Full => {
                let row = self.rows[pos].expect("full-search job with a model has a memo row");
                self.memo.borrow_mut().best_plan_at(
                    row,
                    model,
                    PlanSetCache::global(),
                    batch,
                    placement,
                )
            }
            search => search.best_plan(model, batch, placement),
        }
    }

    fn is_frozen(&self, id: JobId) -> bool {
        self.frozen[self.idx(id)]
    }

    /// Slope normalization constant: the geometric mean of the job's SLA
    /// baseline (throughput of the user-requested configuration) and its
    /// best achievable throughput on this cluster (curve peak). Baseline
    /// normalization alone lets jobs with weak submitted plans dominate the
    /// slope order (low average JCT but heavy churn and starved tails);
    /// peak normalization alone is scale-free but sacrifices average JCT.
    /// The geometric mean interpolates between the two.
    fn norm(&self, id: JobId) -> f64 {
        let pos = self.idx(id);
        let baseline = self.baselines[pos].unwrap_or(1.0).max(1e-9);
        let peak = self.curves[pos]
            .as_ref()
            .map(|c| c.value(self.total_gpus))
            .filter(|v| *v > 0.0)
            .unwrap_or(baseline);
        (baseline * peak).sqrt().max(1e-9)
    }

    /// Jump-aware normalized gain: sensitivity curves are lumpy (a 30B
    /// model produces zero throughput until ~12 GPUs), so the marginal
    /// value of the *next useful amount* is what matters when growing —
    /// `(value(g') − value(g)) / (g' − g)` for the smallest improving `g'`,
    /// read from the curve's [`SensitivityCurve::next_rise`]. Curves span
    /// exactly `0..=total_gpus`, so no rise lies beyond the cluster.
    fn jump_gain(&self, id: JobId, gpus: u32) -> f64 {
        let Some(curve) = self.curve(id) else {
            return 0.0;
        };
        debug_assert_eq!(curve.max_amount(), self.total_gpus);
        match curve.next_rise(gpus) {
            Some(g) => (curve.value(g) - curve.value(gpus)) / (g - gpus) as f64 / self.norm(id),
            None => 0.0,
        }
    }

    /// Normalized marginal loss of one fewer GPU at `gpus` (envelope step).
    fn loss_slope(&self, id: JobId, gpus: u32) -> f64 {
        self.curve(id)
            .map(|c| c.loss_slope(gpus) / self.norm(id))
            .unwrap_or(f64::INFINITY)
    }

    /// The useful GPU cap: the smallest amount achieving (within 0.5 %) the
    /// best throughput the curve reaches on this cluster.
    fn g_star(&self, id: JobId) -> u32 {
        let Some(curve) = self.curve(id) else {
            return self.snap(id).spec.requested.gpus;
        };
        let peak = curve.value(self.total_gpus);
        if peak <= 0.0 {
            return 0;
        }
        curve
            .min_amount_reaching(peak * 0.995)
            .unwrap_or(self.total_gpus)
    }

    /// The GPU cap of a search for job `id`. Admission is capped at the
    /// user's request (or the smallest runnable amount if the request
    /// itself is invalid): a job may not hoard the whole idle cluster the
    /// moment it arrives. Growth beyond the request happens in later rounds
    /// through the guarded running-job path, once competing demand is
    /// visible.
    fn cap_gpus(&self, id: JobId, running: bool) -> u32 {
        let snap = self.snap(id);
        if !self.sched.config.resource_realloc {
            snap.spec.requested.gpus
        } else if running {
            self.g_star(id)
        } else {
            let first_useful = self
                .curve(id)
                .and_then(|c| c.min_amount_reaching(1e-12))
                .unwrap_or(snap.spec.requested.gpus);
            self.g_star(id)
                .min(snap.spec.requested.gpus.max(first_useful))
        }
    }

    /// The CPU cap of a search for job `id` whose GPU cap is `cap_gpus`.
    fn cap_cpus(&self, id: JobId, cap_gpus: u32) -> u32 {
        if self.sched.config.resource_realloc {
            (10 * cap_gpus + 4).max(self.minimum(id).cpus)
        } else {
            self.snap(id).spec.requested.cpus
        }
    }

    /// Whether shrinking `victim` from `gpus` to `gpus − 1` is permitted:
    /// stay above its minimum, and either remain runnable or (best-effort
    /// only) be preempted to zero.
    fn can_shrink(&self, victim: JobId, gpus: u32) -> bool {
        if gpus == 0 {
            return false;
        }
        let min_gpus = self.minimum(victim).gpus;
        if gpus <= min_gpus {
            return false;
        }
        let new_gpus = gpus - 1;
        if new_gpus == 0 {
            return self.snap(victim).spec.class == JobClass::BestEffort;
        }
        self.curve(victim)
            .map(|c| c.value(new_gpus) > 0.0)
            .unwrap_or(false)
    }

    /// CPU marginal gain for a job under its current plan (direct model
    /// evaluation; CPUs only matter for offloaded optimizers).
    fn cpu_gain(&self, id: JobId, plan: &ExecutionPlan, placement: &Placement) -> f64 {
        let snap = self.snap(id);
        let Some(model) = self.model(id) else {
            return 0.0;
        };
        let mut more = placement.clone();
        more.cpus += CPU_DELTA;
        let cur = model.params.throughput(
            &model.spec,
            plan,
            snap.spec.global_batch,
            placement,
            &model.env,
        );
        let next =
            model
                .params
                .throughput(&model.spec, plan, snap.spec.global_batch, &more, &model.env);
        ((next - cur) / CPU_DELTA as f64 / self.norm(id)).max(0.0)
    }

    fn cpu_loss(&self, id: JobId, plan: &ExecutionPlan, placement: &Placement) -> f64 {
        if placement.cpus <= CPU_DELTA {
            return f64::INFINITY;
        }
        let snap = self.snap(id);
        let Some(model) = self.model(id) else {
            return f64::INFINITY;
        };
        let mut fewer = placement.clone();
        fewer.cpus -= CPU_DELTA;
        let cur = model.params.throughput(
            &model.spec,
            plan,
            snap.spec.global_batch,
            placement,
            &model.env,
        );
        let prev = model.params.throughput(
            &model.spec,
            plan,
            snap.spec.global_batch,
            &fewer,
            &model.env,
        );
        ((cur - prev) / CPU_DELTA as f64 / self.norm(id)).max(0.0)
    }
}

/// Computes one job's context entries: fitted model, plan-search mode, GPU
/// sensitivity curve, SLA baseline, minimum demand and best-plan memo row.
/// Pure in (snapshot spec, registry, cluster geometry) — full-search
/// curves go through the shared keyed cache, whose hit/miss pattern cannot
/// change the values.
/// Because every input is epoch-stable, the result is cacheable across
/// rounds by the [`DirtyTracker`](super::dirty::DirtyTracker); the
/// penalty-gate state (`frozen`) depends on the job's runtime and is
/// computed per round at merge time instead.
fn build_job_parts(
    sched: &RubickScheduler,
    snap: &JobSnapshot,
    total_gpus: u32,
    estimator: MemoryEstimator,
    memo: &mut BestPlanMemo,
) -> CachedParts {
    let cfg = &sched.config;
    let search = if cfg.plan_reconfig {
        PlanSearch::Full
    } else if cfg.resource_realloc {
        PlanSearch::DpScale(snap.spec.initial_plan)
    } else {
        PlanSearch::Fixed(snap.spec.initial_plan)
    };
    let model = sched.registry.model(&snap.spec.model.name);
    let row = match (&search, &model) {
        (PlanSearch::Full, Some(m)) => Some(memo.row(m, snap.spec.global_batch)),
        _ => None,
    };
    CachedParts {
        model,
        row,
        curve: sched.registry.gpu_curve(
            &snap.spec.model.name,
            &search,
            snap.spec.global_batch,
            total_gpus,
        ),
        baseline: job_baseline(&sched.registry, snap),
        minimum: super::minres::min_res(
            &sched.registry,
            snap,
            &search,
            cfg.resource_realloc,
            estimator,
        ),
        search,
    }
}

/// Entry point called from [`Scheduler::schedule`](rubick_sim::Scheduler).
pub(super) fn run_round(
    sched: &RubickScheduler,
    now: f64,
    jobs: &[JobSnapshot],
    cluster: &Cluster,
    tenants: &[Tenant],
) -> Vec<Assignment> {
    let cfg = &sched.config;
    let total_gpus = cluster.schedulable_capacity().gpus;

    // ---- lazy profiling (phase ① of Fig. 4) -----------------------------
    // Unknown model types are profiled on first sight; their jobs stay in
    // the queue until the simulated profiling window elapses.
    let filtered: Option<Vec<JobSnapshot>> = sched.lazy.as_ref().map(|lazy| {
        let mut ready = lazy.ready_at.lock();
        for snap in jobs {
            let name = &snap.spec.model.name;
            if sched.registry.model(name).is_none() && !ready.contains_key(name) {
                let wall = sched
                    .registry
                    .profile_on_demand(&lazy.oracle, &snap.spec.model)
                    .unwrap_or(0.0);
                ready.insert(name.clone(), now + wall);
            }
        }
        jobs.iter()
            .filter(|s| {
                ready
                    .get(&s.spec.model.name)
                    .map(|&t| now >= t)
                    .unwrap_or(true)
            })
            .cloned()
            .collect()
    });
    let jobs: &[JobSnapshot] = filtered.as_deref().unwrap_or(jobs);

    // ---- incremental classification (dirty-set planning, §see DESIGN 11)
    // Fingerprint every job's planning inputs and compare against the end
    // of the previous round. The epoch embeds the registry version, so a
    // refit published since the last round (by the engine's refit hook)
    // or a model profiled on demand above invalidates every certificate
    // at once.
    let registry_version = sched.registry.version();
    let epoch_now = cfg.incremental.then(|| Epoch {
        registry_version,
        total_gpus,
        node_caps: cluster
            .nodes()
            .iter()
            .map(|n| n.schedulable_capacity())
            .collect(),
        tenants: tenants.to_vec(),
    });
    let mut tracker = cfg.incremental.then(|| sched.tracker.lock());
    let mut cls: Option<Classification> = match (&mut tracker, &epoch_now) {
        (Some(t), Some(e)) => {
            // Lazy profiling filters the jobs slice, so the engine's delta
            // (expressed against the unfiltered job set) cannot be trusted
            // this round — fall back to full fingerprinting.
            if filtered.is_some() {
                t.clear_delta();
            }
            Some(t.classify(jobs, e, cfg.reconfig_threshold))
        }
        _ => None,
    };

    // ---- initial state: current allocations applied --------------------
    // Built before the per-job context: the ledger check (and with it the
    // fast path) only needs the post-charge free vector, which is cheap.
    let mut state = State {
        round: RoundContext::new(cluster, jobs),
        alloc: BTreeMap::new(),
        changed: BTreeSet::new(),
        undo: Undo::default(),
        floor: Cell::new(None),
    };
    for (id, alloc) in state.round.charge_running() {
        state.alloc.insert(id, alloc);
    }

    // ---- ledger check + fast path --------------------------------------
    // Capacity growth (a job finished or was evicted elsewhere) gives
    // non-satiated searches something to grab, so only the satiated skips
    // survive it; any shrink is maximally conservative. When every job is
    // clean, the previous round was quiet and the ledger is bit-identical,
    // the whole round is provably a verbatim re-emit.
    if let (Some(t), Some(c)) = (&mut tracker, &mut cls) {
        match state.round.delta_vs(t.projected_free()) {
            LedgerDelta::Unchanged => {}
            LedgerDelta::Grown(_) => c.demote_quiet(),
            LedgerDelta::Shrunk(_) => c.demote_all(),
        }
        if c.fast_eligible() {
            let classified = c.classified;
            t.restore_index(c.take_index());
            return t.fast_path(jobs, classified);
        }
    }

    // ---- build round context ------------------------------------------
    // The per-job work (curve, baseline, minimum demand) is the round's
    // hot path. One estimator per round (it is a cheap `Copy` of the
    // cluster's GPU memory capacity), shared by every per-job
    // minimum-demand search and the allocation passes below.
    //
    // Incrementally-tracked rounds reuse the epoch-stable slice from the
    // tracker's cache (`build_job_parts` is pure in epoch-stable inputs)
    // and only rebuild jobs the cache has not seen. Job ids are strictly
    // increasing, so a miss inserted here is never looked up again this
    // round.
    let estimator = MemoryEstimator::new(cluster.shape().gpu_mem_gb);
    let mut index = cls.as_mut().map(|c| c.take_index()).unwrap_or_default();
    if cls.is_none() {
        index.rebuild(jobs);
    }
    let n = jobs.len();
    let mut plan_memo = sched.plan_memo.lock();
    let mut ctx = Ctx {
        sched,
        index,
        snaps: Vec::with_capacity(n),
        models: Vec::with_capacity(n),
        rows: Vec::with_capacity(n),
        memo: RefCell::new(&mut *plan_memo),
        searches: Vec::with_capacity(n),
        minima: Vec::with_capacity(n),
        baselines: Vec::with_capacity(n),
        curves: Vec::with_capacity(n),
        frozen: Vec::with_capacity(n),
        estimator,
        total_gpus,
    };
    let reusable = cls.as_ref().is_some_and(|c| c.parts_reusable);
    for snap in jobs {
        let id = snap.id();
        ctx.snaps.push(snap);
        let hit = match &tracker {
            Some(t) if reusable => t.parts.get(&id).cloned(),
            _ => None,
        };
        let parts = match hit {
            Some(parts) => parts,
            None => {
                let parts = build_job_parts(sched, snap, total_gpus, estimator, ctx.memo.get_mut());
                if let Some(t) = &mut tracker {
                    t.parts.insert(id, parts.clone());
                }
                parts
            }
        };
        ctx.models.push(parts.model);
        ctx.rows.push(parts.row);
        ctx.curves.push(parts.curve);
        ctx.baselines.push(parts.baseline);
        ctx.minima.push(parts.minimum);
        // The penalty gate reads the job's accumulated runtime, which
        // grows every round — never cached.
        ctx.frozen
            .push(snap.status.is_running() && !snap.reconfig_allowed(cfg.reconfig_threshold));
        ctx.searches.push(parts.search);
    }

    // The skip predicate of the incremental round: satiated-clean jobs
    // skip their (provably no-op) visit unconditionally; quiet-clean jobs
    // skip only while nothing has mutated the round state yet — the first
    // lasting mutation voids every positional no-op certificate, and all
    // later jobs are searched exactly as in a full round.
    let may_skip = |state: &State<'_>, id: &JobId| -> bool {
        cls.as_ref().is_some_and(|c| match c.verdict(ctx.idx(*id)) {
            Verdict::SkipAlways => true,
            Verdict::QuietSkip => state.changed.is_empty(),
            Verdict::Dirty => false,
        })
    };
    let mut searched: u64 = 0;
    let mut running_searched: u64 = 0;

    // ---- pass 1: privileged guaranteed jobs within quota ---------------
    let queued_guaranteed: Vec<JobId> = state
        .round
        .queued_fifo(|s| s.spec.class == JobClass::Guaranteed)
        .iter()
        .map(|s| s.id())
        .collect();
    for id in queued_guaranteed {
        if may_skip(&state, &id) {
            continue;
        }
        if quota_allows(&ctx, &state, tenants, id) {
            searched += 1;
            schedule_job(&ctx, &mut state, id);
        }
    }

    // ---- pass 1b: starving best-effort jobs get priority ---------------
    let starving: Vec<JobId> = state
        .round
        .queued_fifo(|s| {
            s.spec.class == JobClass::BestEffort && now - s.queued_since > cfg.starvation_timeout
        })
        .iter()
        .map(|s| s.id())
        .collect();
    for id in starving {
        if may_skip(&state, &id) {
            continue;
        }
        searched += 1;
        schedule_job(&ctx, &mut state, id);
    }

    // ---- pass 2: best-effort + running, sorted by slope ----------------
    let rest: Vec<JobId> = jobs
        .iter()
        .filter(|s| {
            // Queued jobs already admitted by the privileged/starvation
            // passes hold an allocation in `state` and are done this round.
            (s.status.is_queued()
                && s.spec.class == JobClass::BestEffort
                && !state.alloc.contains_key(&s.id()))
                || s.status.is_running()
        })
        .map(|s| s.id())
        .collect();
    // Sort by jump-aware slope with queue aging: a job's priority rises as
    // it waits, smoothly generalizing the hard starvation promotion so
    // large lumpy-curve jobs (low slope-per-GPU) still get scheduled.
    let priority = |ctx: &Ctx<'_>, state: &State<'_>, id: &JobId| -> f64 {
        let gpus = state.alloc.get(id).map(|x| x.gpus()).unwrap_or(0);
        let slope = ctx.jump_gain(*id, gpus);
        let snap = ctx.snap(*id);
        let age = if snap.status.is_queued() {
            (now - snap.queued_since).max(0.0) / cfg.starvation_timeout.max(1.0)
        } else {
            0.0
        };
        slope * (1.0 + age)
    };
    // Keys are computed once per job, not per comparison: the comparator
    // used to re-derive them (curve queries) O(n log n) times, which
    // dominated mostly-skipped incremental rounds. Same values, same
    // tie-break, so the order — and every golden — is unchanged.
    let mut rest: Vec<(f64, JobId)> = rest
        .into_iter()
        .map(|id| (priority(&ctx, &state, &id), id))
        .collect();
    rest.sort_by(|(pa, a), (pb, b)| pb.total_cmp(pa).then(a.cmp(b)));
    let rest: Vec<JobId> = rest.into_iter().map(|(_, id)| id).collect();
    for id in rest {
        if may_skip(&state, &id) {
            continue;
        }
        searched += 1;
        if ctx.snap(id).status.is_running() {
            running_searched += 1;
        }
        schedule_job(&ctx, &mut state, id);
    }

    // ---- emit assignments ----------------------------------------------
    // Quietness is judged *before* emit (emit only reads): a round with an
    // empty changed-set left the state bit-identical to its start, which
    // is exactly what next round's quiet-skip certificates need.
    let quiet = state.changed.is_empty();
    let out = emit(&ctx, state);

    // ---- record incremental memory for the next round -------------------
    if let (Some(mut t), Some(c), Some(e)) = (tracker, cls, epoch_now) {
        let running_total = jobs.iter().filter(|s| s.status.is_running()).count() as u64;
        t.set_stats(RoundStats {
            dirty: c.dirty_len(),
            clean: c.clean_len(),
            reused: running_total.saturating_sub(running_searched),
            searched,
            classified: c.classified,
        });
        let node_caps = e.node_caps.clone();
        t.record(
            jobs,
            &out,
            node_caps,
            e,
            quiet,
            cfg.reconfig_threshold,
            |id, alloc| is_satiated(&ctx, id, alloc),
            Some(&ctx.index),
        );
        t.restore_index(std::mem::take(&mut ctx.index));
    }
    out
}

/// Whether `alloc` already satiates job `id`'s useful caps — the exact
/// break condition at the top of [`grow_job`]'s per-node loop, using the
/// *running*-job GPU cap (the job will be running next round, since it is
/// being emitted). A satiated job's visit provably never reads the free
/// ledger or any victim, which is what licenses the tracker's
/// unconditional skip.
fn is_satiated(ctx: &Ctx<'_>, id: JobId, alloc: &Allocation) -> bool {
    let total = alloc.total();
    let cap_gpus = ctx.cap_gpus(id, true);
    if cap_gpus == 0 {
        return false;
    }
    let cap_cpus = ctx.cap_cpus(id, cap_gpus);
    total.gpus >= cap_gpus && total.cpus >= cap_cpus.min(total.gpus * 2 + 1)
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
    for (other, alloc) in &state.alloc {
        if *other == id || alloc.is_empty() {
            continue;
        }
        let o = ctx.snap(*other);
        if o.spec.class == JobClass::Guaranteed && o.spec.tenant == snap.spec.tenant {
            used += ctx.minimum(*other);
        }
    }
    let want = ctx.minimum(id);
    tenant.quota.dominates(&(used + want))
}

/// `ScheduleJob` of Algorithm 1: one search for job `id`, kept or rolled
/// back as a whole, or skipped when it provably rolls back. Debug builds
/// walk every skipped search on a copy and check that it leaves the state
/// as it was.
fn schedule_job(ctx: &Ctx<'_>, state: &mut State<'_>, id: JobId) {
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
        state.floor.set(None);
    } else {
        state.rollback();
        #[cfg(debug_assertions)]
        assert!(same_state(&before, state), "inexact rollback of {id:?}");
    }
}

/// Whether the search of job `id` provably rolls back, so
/// [`schedule_job`] can skip the walk (DESIGN.md §8). Only a search on a
/// ledger with no free GPU whose job cannot take a GPU from any victim
/// ([`takes_no_gpu`]) qualifies: its walk can add only CPUs and host
/// memory. Without a GPU the grant fails a GPU minimum or has no plan.
/// With GPUs, the job must be running on its snapshot's allocation or on
/// fewer GPUs. When the best plan is then the same non-offload plan
/// without and with every CPU and memory addition, the walk finds that
/// plan at the same throughput and reclaims no CPU; the churn guard
/// rejects it unless that throughput, or the envelope shrink's scored
/// with every addition, clears the bar.
fn rolls_back_untouched(ctx: &Ctx<'_>, state: &State<'_>, id: JobId) -> bool {
    if state.round.free().iter().any(|r| r.gpus > 0) {
        return false;
    }
    let Some(model) = ctx.model(id) else {
        return true;
    };
    let snap = ctx.snap(id);
    let cap_gpus = ctx.cap_gpus(id, snap.status.is_running());
    if cap_gpus == 0 {
        return true;
    }
    let cur = state.alloc.get(&id);
    let frozen = ctx.is_frozen(id);
    let gpus = cur.map_or(0, Allocation::gpus);
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
    // An entry that lost only CPUs (to another job's CPU reclaim) can end
    // the walk back at the snapshot's allocation and hit the "nothing
    // changed" keep. A frozen job is never a CPU victim.
    if cur.gpus() >= old_alloc.gpus() && cur != old_alloc {
        debug_assert!(!frozen, "frozen job {id:?} changed without losing a GPU");
        return false;
    }
    let lo = cur.to_placement();
    let Some((plan, tput)) = ctx.best_plan(id, &lo) else {
        return false;
    };
    let mut hi = Placement {
        cpus: lo.cpus.max(ctx.cap_cpus(id, cap_gpus)),
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
        let envelope = curve.value(gpus);
        if envelope > tput * 1.005 {
            if let Some(target) = curve.min_amount_reaching(envelope) {
                // The walk only appends nodes without GPUs, so it shrinks
                // the same GPU layout.
                let mut shrunk = cur.clone();
                shrink_alloc_to(&mut state.round.free().to_vec(), &mut shrunk, target);
                hi.gpus_per_node = shrunk.to_placement().gpus_per_node;
                if let Some((_, shrunk)) = ctx.best_plan(id, &hi) {
                    bound = bound.max(shrunk);
                }
            }
        }
    }
    let old_tput = model
        .throughput(old_plan, snap.spec.global_batch, &old_alloc.to_placement())
        .unwrap_or(0.0);
    bound < old_tput * (1.0 + ctx.sched.config.min_gain)
}

/// Whether a walk for job `id`, holding `gpus` GPUs under a steal cap of
/// `steal_cap`, takes no GPU from any victim. It mirrors the steal loop of
/// [`grow_job`] on a ledger with no free GPU, where the job's GPU count
/// and gain stay fixed until a GPU moves. The loop then takes one exactly
/// when some node's lowest victim passes the slope bar, which holds
/// exactly when the table's victim floor does.
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

/// The search of `ScheduleJob`: grow `id` using free resources and, where
/// justified by slopes, resources reclaimed from the least sensitive jobs.
/// Returns whether to keep the attempt; [`schedule_job`] rolls it back
/// otherwise.
fn grow_job(ctx: &Ctx<'_>, state: &mut State<'_>, id: JobId) -> bool {
    // The reconfiguration-penalty gate (§5.2) deters churn, but it must not
    // hard-block a clear win: a gated job may still absorb *free* capacity
    // (no victims disturbed) when the predicted saving clears a stricter
    // amortization bar — see the commit guard below.
    let frozen = ctx.is_frozen(id);
    let snap = ctx.snap(id);
    let Some(model) = ctx.model(id) else {
        return false;
    };

    let cur_alloc = state
        .alloc
        .get(&id)
        .cloned()
        .unwrap_or_else(Allocation::empty);
    let minimum = ctx.minimum(id);
    // Stealing is restricted further than the caps: jobs whose penalty
    // gate is active may only absorb free capacity.
    let cap_gpus = ctx.cap_gpus(id, snap.status.is_running());
    let steal_cap_gpus = if frozen { cur_alloc.gpus() } else { cap_gpus };
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

    let mut tentative = cur_alloc.clone();

    // Node order: nodes the job already occupies first (consolidation),
    // then descending free GPUs.
    let mut order: Vec<usize> = (0..state.round.free().len()).collect();
    order.sort_by_key(|&n| {
        let mine = tentative
            .per_node
            .iter()
            .find(|(i, _)| *i == n)
            .map(|(_, r)| r.gpus)
            .unwrap_or(0);
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
            tentative.merge(&Allocation::on_node(n, take));
        }
        // Reclaim GPUs from the least sensitive job on this node.
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
            let Some(victim) = lowest_slope_victim(ctx, state, n, id) else {
                break;
            };
            let victim_gpus = state.alloc[&victim].gpus();
            let victim_loss = ctx.loss_slope(victim, victim_gpus);
            if below_min || victim_loss < my_gain * SHRINK_HYSTERESIS {
                transfer_gpu(state, victim, n, &mut tentative);
            } else {
                break;
            }
        }
        // Reclaim CPUs similarly (relevant for offload-bound jobs).
        if ctx.sched.config.resource_realloc {
            reclaim_cpus(ctx, state, n, id, &mut tentative, cap_cpus);
        }
    }

    // ---- accept or roll back -------------------------------------------
    let total = tentative.total();
    if tentative.is_empty() || !total.dominates(&minimum) {
        return false;
    }
    let placement = tentative.to_placement();
    let Some((plan, mut tput)) = ctx.best_plan(id, &placement) else {
        return false;
    };

    // If some grabbed GPUs are useless (invalid plan sizes), return them.
    let mut plan = plan;
    if let Some(curve) = ctx.curve(id) {
        let envelope = curve.value(total.gpus);
        if envelope > tput * 1.005 {
            if let Some(target) = curve.min_amount_reaching(envelope) {
                shrink_alloc_to(state.round.free_mut(), &mut tentative, target);
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
    trim_to_demand(state, &mut tentative, &demand);

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
            if state.undo.victims.is_empty() && state.alloc.get(&id) == Some(&tentative) {
                return false;
            }
            state.alloc.insert(id, tentative);
            return true;
        }
        let old_tput = model
            .throughput(old_plan, snap.spec.global_batch, &old_alloc.to_placement())
            .unwrap_or(0.0);
        if tput < old_tput * (1.0 + ctx.sched.config.min_gain) {
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

    state.alloc.insert(id, tentative);
    state.changed.insert(id);
    true
}

/// `GetLowestSlopeOverMinJob`: the job on node `n` (other than `id`)
/// with the lowest normalized GPU loss slope among those
/// [`victim_loss`] admits. Frozen jobs are eligible.
fn lowest_slope_victim(ctx: &Ctx<'_>, state: &State<'_>, n: usize, id: JobId) -> Option<JobId> {
    // Note: the reconfiguration-penalty gate deliberately does NOT protect
    // victims here. The gate (§5.2) limits how often a job reconfigures
    // *for its own benefit*; being shrunk by a higher-slope job or
    // preempted for an SLA is a scheduler decision the victim cannot veto
    // (best-effort jobs "can be preempted by the system", §5.1). Churn is
    // bounded instead by the slope comparison itself: a transfer only
    // happens when it increases total normalized throughput.
    let mut best: Option<(JobId, f64)> = None;
    for (cand, alloc) in &state.alloc {
        if *cand == id {
            continue;
        }
        let on_node = alloc
            .per_node
            .iter()
            .find(|(i, _)| *i == n)
            .map(|(_, r)| r.gpus)
            .unwrap_or(0);
        if on_node == 0 {
            continue;
        }
        let Some(loss) = victim_loss(ctx, *cand, alloc) else {
            continue;
        };
        if best.as_ref().map(|(_, b)| loss < *b).unwrap_or(true) {
            best = Some((*cand, loss));
        }
    }
    best.map(|(id, _)| id)
}

/// The normalized loss slope of taking one GPU from `cand`, or `None` when
/// it cannot be a victim: it cannot shrink, or it is about to finish. The
/// steal loop and the victim floor both filter through here.
fn victim_loss(ctx: &Ctx<'_>, cand: JobId, alloc: &Allocation) -> Option<f64> {
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
    let entry = alloc
        .per_node
        .iter_mut()
        .find(|(i, _)| *i == n)
        .expect("victim on node");
    let cpus_per_gpu = (entry.1.cpus / entry.1.gpus.max(1)).min(entry.1.cpus);
    entry.1.gpus -= 1;
    entry.1.cpus -= cpus_per_gpu;
    let moved = Resources::new(1, cpus_per_gpu, 0.0);
    alloc.per_node.retain(|(_, r)| r.any_positive());
    if alloc.is_empty() {
        state.alloc.remove(&victim);
    }
    state.mark_changed(victim);
    tentative.merge(&Allocation::on_node(n, moved));
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
    if !tentative
        .per_node
        .iter()
        .any(|(i, r)| *i == n && r.gpus > 0)
    {
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
        let my_gain = ctx.cpu_gain(id, &plan, &placement);
        if my_gain <= EPS_SLOPE {
            break;
        }
        // Lowest CPU-loss victim on the node.
        let mut best: Option<(JobId, f64)> = None;
        for (cand, alloc) in &state.alloc {
            if *cand == id || ctx.is_frozen(*cand) {
                continue;
            }
            let on_node = alloc
                .per_node
                .iter()
                .find(|(i, _)| *i == n)
                .map(|(_, r)| r.cpus)
                .unwrap_or(0);
            let min_cpus = ctx.minimum(*cand).cpus;
            if on_node < CPU_DELTA || alloc.total().cpus < min_cpus + CPU_DELTA {
                continue;
            }
            let c_snap = ctx.snap(*cand);
            let Some(plan) = c_snap.plan().copied() else {
                continue;
            };
            let loss = ctx.cpu_loss(*cand, &plan, &alloc.to_placement());
            if best.as_ref().map(|(_, b)| loss < *b).unwrap_or(true) {
                best = Some((*cand, loss));
            }
        }
        let Some((victim, loss)) = best else { break };
        if loss >= my_gain * SHRINK_HYSTERESIS {
            break;
        }
        let entry = state
            .victim_mut(victim)
            .per_node
            .iter_mut()
            .find(|(i, _)| *i == n)
            .expect("victim on node");
        entry.1.cpus -= CPU_DELTA;
        state.mark_changed(victim);
        tentative.merge(&Allocation::on_node(n, Resources::new(0, CPU_DELTA, 0.0)));
    }
}

/// Returns GPUs above `target` to the free pool, smallest per-node grants
/// first (consolidation).
fn shrink_alloc_to(free: &mut [Resources], tentative: &mut Allocation, target: u32) {
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
        free[node] += Resources::new(1, 0, 0.0);
        tentative.per_node.retain(|(_, r)| r.any_positive());
    }
}

/// `AllocMem` (lines 19–23): size the job's CPU and host-memory grant to
/// the chosen plan's demand, returning the excess to the free pool.
fn trim_to_demand(
    state: &mut State<'_>,
    tentative: &mut Allocation,
    demand: &rubick_model::ResourceDemand,
) {
    let total = tentative.total();
    let mut excess_cpus = total.cpus.saturating_sub(demand.cpus.max(1));
    let mut excess_mem = (total.mem_gb - demand.host_mem_gb.max(1.0)).max(0.0);
    for (node, res) in tentative.per_node.iter_mut() {
        if excess_cpus > 0 {
            let back = excess_cpus.min(res.cpus.saturating_sub(res.gpus)); // keep ≥1 cpu/gpu
            res.cpus -= back;
            state.round.free_mut()[*node] += Resources::new(0, back, 0.0);
            excess_cpus -= back;
        }
        if excess_mem > 0.0 {
            let back = excess_mem.min(res.mem_gb);
            res.mem_gb -= back;
            state.round.free_mut()[*node] += Resources::new(0, 0, back);
            excess_mem -= back;
        }
    }
    tentative.per_node.retain(|(_, r)| r.any_positive());
}

/// Builds the final assignment list: recompute plans for changed jobs,
/// reproduce current configs verbatim for untouched ones.
fn emit(ctx: &Ctx<'_>, mut state: State<'_>) -> Vec<Assignment> {
    let mut out = Vec::new();
    let ids: Vec<JobId> = state.alloc.keys().copied().collect();
    for id in ids {
        let alloc = state.alloc[&id].clone();
        if alloc.is_empty() {
            continue;
        }
        let snap = ctx.snap(id);
        if !state.changed.contains(&id) {
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
        let mut alloc = alloc;
        let placement = alloc.to_placement();
        let best = ctx.best_plan(id, &placement).or_else(|| {
            // The exact GPU count has no valid plan (common under
            // DP-rescaling, whose valid counts are sparse): trim the
            // allocation down to the largest runnable amount instead of
            // preempting the job outright.
            let curve = ctx.curve(id)?;
            let (plan, _) = curve.best_plan_at(alloc.gpus())?;
            shrink_alloc_to(state.round.free_mut(), &mut alloc, plan.gpus());
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
                if new > old * (1.0 + ctx.sched.config.min_gain)
                    && snap.reconfig_allowed(ctx.sched.config.reconfig_threshold)
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
        trim_to_demand(&mut state, &mut alloc, &demand);
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
mod tests {
    use crate::registry::ModelRegistry;
    use crate::rubick::RubickScheduler;
    use rubick_model::{ExecutionPlan, MemoryMode, ModelSpec, NodeShape, Resources};
    use rubick_sim::cluster::{Allocation, Cluster};
    use rubick_sim::engine::{Engine, EngineConfig};
    use rubick_sim::job::{JobClass, JobSpec, JobStatus};
    use rubick_sim::scheduler::{Assignment, JobSnapshot, Scheduler};
    use rubick_sim::tenant::{Tenant, TenantId};
    use rubick_sim::SimReport;
    use rubick_testbed::TestbedOracle;
    use std::sync::Arc;

    fn registry(oracle: &TestbedOracle, specs: &[ModelSpec]) -> Arc<ModelRegistry> {
        Arc::new(ModelRegistry::from_oracle(oracle, specs).unwrap())
    }

    fn job(id: u64, model: ModelSpec, gpus: u32, plan: ExecutionPlan, batches: u64) -> JobSpec {
        JobSpec {
            id,
            global_batch: model.default_batch,
            submit_time: 0.0,
            target_batches: batches,
            requested: Resources::new(gpus, gpus * 6, gpus as f64 * 100.0),
            initial_plan: plan,
            class: JobClass::Guaranteed,
            tenant: TenantId::default(),
            model,
        }
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
    /// back. The victim holds no host memory, so the transfers empty it and
    /// drop its entry; the rollback must re-insert it with all 8 GPUs.
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
        let snap = |spec: JobSpec, status| JobSnapshot {
            remaining_batches: spec.target_batches as f64,
            spec: Arc::new(spec),
            status,
            queued_since: 0.0,
            runtime: 0.0,
            reconfig_count: 0,
            baseline_throughput: None,
        };
        let running = JobStatus::Running {
            allocation: Allocation::on_node(0, Resources::new(8, 48, 0.0)),
            plan: ExecutionPlan::dp(8),
            throughput: 1.0,
            resume_at: 0.0,
        };
        let jobs = [snap(victim, running), snap(grower, JobStatus::Queued)];
        let out = RubickScheduler::new(reg).schedule(
            10.0,
            &jobs,
            &Cluster::new(1, NodeShape::a800()),
            &[],
        );
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
        let snap = |spec: JobSpec, status, runtime| JobSnapshot {
            remaining_batches: spec.target_batches as f64,
            spec: Arc::new(spec),
            status,
            queued_since: 0.0,
            runtime,
            reconfig_count: 0,
            baseline_throughput: None,
        };
        // 100 s of runtime is far below the penalty gate's 0.97 share.
        let frozen = snap(
            job(1, model, 1, plan, 1_000_000),
            running(alloc.clone(), plan),
            100.0,
        );
        assert!(!frozen.reconfig_allowed(0.97));
        let other = snap(
            job(2, ModelSpec::roberta_large(), 7, ExecutionPlan::dp(7), 1000),
            running(
                Allocation::on_node(0, Resources::new(7, 14, 100.0)),
                ExecutionPlan::dp(7),
            ),
            0.0,
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

    /// Schedules a queued best-effort RoBERTa job next to a best-effort
    /// `victim` model holding all 8 GPUs of the one node, so the ledger has
    /// no free GPU. The queued job's minimum is zero: it takes a GPU only
    /// if the victim's loss slope is below its gain times the hysteresis.
    fn queued_next_to(victim: ModelSpec) -> Vec<Assignment> {
        let oracle = TestbedOracle::new(24);
        let grower = ModelSpec::roberta_large();
        let reg = registry(&oracle, &[victim.clone(), grower.clone()]);
        let best_effort = |spec: JobSpec| JobSnapshot {
            remaining_batches: spec.target_batches as f64,
            spec: Arc::new(JobSpec {
                class: JobClass::BestEffort,
                ..spec
            }),
            status: JobStatus::Queued,
            queued_since: 0.0,
            runtime: 0.0,
            reconfig_count: 0,
            baseline_throughput: None,
        };
        let mut running = best_effort(job(1, victim, 8, ExecutionPlan::dp(8), 1_000_000));
        running.status = JobStatus::Running {
            allocation: Allocation::on_node(0, Resources::new(8, 48, 800.0)),
            plan: ExecutionPlan::dp(8),
            throughput: 1.0,
            resume_at: 0.0,
        };
        let queued = best_effort(job(2, grower, 1, ExecutionPlan::dp(1), 1_000_000));
        RubickScheduler::new(reg).schedule(
            10.0,
            &[running, queued],
            &Cluster::new(1, NodeShape::a800()),
            &[],
        )
    }

    /// A RoBERTa victim's loss slope at 8 GPUs is below the queued job's
    /// bar, so the search must not be skipped: it takes one GPU.
    #[test]
    fn queued_job_on_a_full_ledger_takes_a_gpu_below_the_slope_bar() {
        let out = queued_next_to(ModelSpec::roberta_large());
        let gpus: Vec<_> = out.iter().map(|a| (a.job, a.allocation.gpus())).collect();
        assert_eq!(gpus, [(1, 7), (2, 1)], "{out:?}");
    }

    /// A BERT victim's loss slope is just above the bar: the search is
    /// skipped (walked on a clone in debug builds) and the victim keeps
    /// its allocation.
    #[test]
    fn queued_job_on_a_full_ledger_above_the_slope_bar_changes_nothing() {
        let out = queued_next_to(ModelSpec::bert_large());
        let gpus: Vec<_> = out.iter().map(|a| (a.job, a.allocation.gpus())).collect();
        assert_eq!(gpus, [(1, 8)], "{out:?}");
    }
}

#[cfg(test)]
mod lazy_profiling_tests {
    use crate::registry::ModelRegistry;
    use crate::rubick::RubickScheduler;
    use rubick_model::{ClusterEnv, ExecutionPlan, ModelSpec, NodeShape, Resources};
    use rubick_sim::cluster::Cluster;
    use rubick_sim::engine::{Engine, EngineConfig};
    use rubick_sim::job::{JobClass, JobSpec};
    use rubick_sim::tenant::TenantId;
    use rubick_testbed::TestbedOracle;
    use std::sync::Arc;

    #[test]
    fn unknown_model_types_are_profiled_on_demand() {
        let oracle = TestbedOracle::new(41);
        // Empty registry: nothing pre-profiled.
        let registry = Arc::new(ModelRegistry::new(ClusterEnv::a800(), NodeShape::a800()));
        let scheduler =
            RubickScheduler::new(Arc::clone(&registry)).with_lazy_profiling(oracle.clone());
        let job = JobSpec {
            id: 1,
            model: ModelSpec::roberta_large(),
            global_batch: 64,
            submit_time: 0.0,
            target_batches: 500,
            requested: Resources::new(4, 16, 100.0),
            initial_plan: ExecutionPlan::dp(4),
            class: JobClass::Guaranteed,
            tenant: TenantId::default(),
        };
        let mut engine = Engine::new(
            &oracle,
            Box::new(scheduler),
            Cluster::new(1, NodeShape::a800()),
            vec![],
            EngineConfig::default(),
        );
        let report = engine.run(vec![job]);
        assert_eq!(report.jobs.len(), 1, "unfinished: {:?}", report.unfinished);
        // The model was registered on demand...
        assert!(registry.model("roberta-355m").is_some());
        // ...and the job waited out the simulated profiling window (~210s+,
        // surfaced at the next scheduling round).
        let start = report.jobs[0].first_start.unwrap();
        assert!(
            start >= 200.0,
            "job started before profiling finished: {start}"
        );
    }

    #[test]
    fn preprofiled_types_pay_nothing() {
        let oracle = TestbedOracle::new(41);
        let registry =
            Arc::new(ModelRegistry::from_oracle(&oracle, &[ModelSpec::roberta_large()]).unwrap());
        let scheduler =
            RubickScheduler::new(Arc::clone(&registry)).with_lazy_profiling(oracle.clone());
        let job = JobSpec {
            id: 1,
            model: ModelSpec::roberta_large(),
            global_batch: 64,
            submit_time: 0.0,
            target_batches: 200,
            requested: Resources::new(4, 16, 100.0),
            initial_plan: ExecutionPlan::dp(4),
            class: JobClass::Guaranteed,
            tenant: TenantId::default(),
        };
        let mut engine = Engine::new(
            &oracle,
            Box::new(scheduler),
            Cluster::new(1, NodeShape::a800()),
            vec![],
            EngineConfig::default(),
        );
        let report = engine.run(vec![job]);
        assert_eq!(report.jobs.len(), 1);
        assert!(report.jobs[0].first_start.unwrap() < 60.0);
    }
}
