//! The per-round scheduling logic (lines 1–24 of Algorithm 1).

use super::dirty::{Classification, Epoch, JobIndex, Verdict};
use super::{RubickConfig, RubickScheduler};
use crate::common::{job_baseline, same_arc, CacheEntry, Cached, PlanSearch};
use crate::registry::ModelRegistry;
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
/// Minimum predicted relative throughput gain to justify reconfiguring a
/// running job (churn guard on top of the penalty gate).
const MIN_GAIN: f64 = 0.15;
/// Queueing delay after which a best-effort job is scheduled with priority
/// to prevent starvation, seconds.
const STARVATION_TIMEOUT: f64 = 1200.0;

/// The cached, epoch-stable slice of a job's round context: fitted model,
/// plan-search mode, sensitivity curve, minimum demand, and the GPU caps
/// and slope norm the curve and SLA baseline fix.
/// The penalty gate (`frozen`) is *not* cached — it depends on the job's
/// runtime and is recomputed every round.
struct CachedParts {
    /// The job's fitted model, resolved from the registry once.
    model: Option<Arc<ThroughputModel>>,
    /// Plan-reconfiguration freedom (a function of the policy config and
    /// the job's immutable initial plan).
    search: PlanSearch,
    /// GPU sensitivity curve under `search`, if the model is known.
    curve: Option<Arc<SensitivityCurve>>,
    /// Minimum resource demand (`MinRes` of Algorithm 1).
    minimum: Resources,
    /// The job's row of the scheduler's best-plan memo, for a
    /// [`PlanSearch::Full`] job with a model.
    row: Option<MemoRow>,
    /// The useful GPU cap: the smallest amount whose curve value is
    /// within 0.5 % of the peak on this cluster (the request without a
    /// curve).
    g_star: u32,
    /// The smallest amount with any throughput (the request without one).
    first_useful: u32,
    /// Slope normalization constant: the geometric mean of the SLA
    /// baseline and the curve peak.
    norm: f64,
}

/// What the scheduler keeps per job across rounds in its
/// [`JobCache`](crate::common::JobCache): the job's [`CachedParts`] and
/// its skip certificate ([`Ctx::skip_cert`]).
pub(crate) struct RubickEntry {
    parts: CachedParts,
    cert: RefCell<Option<SkipCert>>,
}

/// A running job's skip verdict on a GPU-full ledger (DESIGN.md §8). Once
/// the job's table entry equals its snapshot's allocation, whether its
/// search rolls back ([`churn_guard_rejects`]) is a fact of the snapshot's
/// `(allocation, plan)` under the entry's parts, so it is decided once and
/// kept in the entry.
struct SkipCert {
    alloc: Allocation,
    plan: ExecutionPlan,
    rolls_back: bool,
}

impl CacheEntry for RubickEntry {
    const POLICY: &'static str = "Rubick";

    fn same(&self, fresh: &Self) -> bool {
        let (a, b) = (&self.parts, &fresh.parts);
        let bits = |r: &Resources| (r.gpus, r.cpus, r.mem_gb.to_bits());
        same_arc(&a.model, &b.model)
            && a.search == b.search
            && same_arc(&a.curve, &b.curve)
            && bits(&a.minimum) == bits(&b.minimum)
            && a.row == b.row
            && (a.g_star, a.first_useful) == (b.g_star, b.first_useful)
            && a.norm.to_bits() == b.norm.to_bits()
    }
}

/// Per-round immutable context: the jobs slice, each job's cache entry and
/// penalty gate, all by position in the slice and addressed through the
/// round's [`JobIndex`], so per-job probes are array reads. The mutable
/// parts are the scheduler's best-plan memo, borrowed for the round, and
/// each entry's certificate cell.
struct Ctx<'a> {
    config: &'a RubickConfig,
    index: &'a JobIndex,
    jobs: &'a [JobSnapshot],
    entries: &'a [Cached<RubickEntry>],
    memo: RefCell<&'a mut BestPlanMemo>,
    frozen: &'a [bool],
    estimator: MemoryEstimator,
    total_gpus: u32,
}

/// The buffers of Rubick's round state, kept by the scheduler across
/// rounds so that a steady-state round refills them instead of
/// allocating its bookkeeping anew.
#[derive(Default)]
pub(crate) struct RoundBuffers {
    table: Table,
    undo: Undo,
    /// Each job's penalty gate, by slice position ([`Ctx::is_frozen`]).
    frozen: Vec<bool>,
    /// Pass 2's `(priority, job)` order.
    rest: Vec<(f64, JobId)>,
}

/// Rubick's tentative allocation table, indexed by position in the
/// round's jobs slice. Every walk over it goes in job-id order, which
/// victim ties (the first minimum wins), the quota sums and the order of
/// the emitted assignments all depend on; for the engine's id-sorted
/// slice that order is the slice's. Only the positions that held an
/// entry this round are listed, so resetting the table costs what the
/// last round entered, not the jobs slice.
#[cfg_attr(debug_assertions, derive(Clone))]
#[derive(Default)]
struct Table {
    /// `slots[pos]` is the grant of `jobs[pos]`, empty unless held.
    slots: Vec<Allocation>,
    /// Whether the table holds an entry for `jobs[pos]`: a running job
    /// from the start of the round or a kept search, even once its grant
    /// has emptied, until a steal that empties it drops it.
    held: Vec<bool>,
    /// Whether a kept search changed `jobs[pos]`'s entry this round.
    changed: Vec<bool>,
    /// How many `changed` flags are set.
    changed_count: usize,
    /// `(job, slice position)` of every job that held an entry this
    /// round, sorted by job id. Every other slot is empty and unflagged.
    order: Vec<(JobId, u32)>,
}

impl Table {
    /// Empties the table for a round over `len` jobs, keeping its
    /// buffers: only the slots last round listed need clearing.
    fn reset(&mut self, len: usize) {
        for &(_, pos) in &self.order {
            let pos = pos as usize;
            self.slots[pos].per_node.clear();
            self.held[pos] = false;
            self.changed[pos] = false;
        }
        self.order.clear();
        self.changed_count = 0;
        self.slots.resize_with(len, Allocation::empty);
        self.held.resize(len, false);
        self.changed.resize(len, false);
    }

    /// Enters `alloc` as the grant of job `id` at `pos`, which holds no
    /// entry yet. Call [`sort`](Table::sort) after the last fill.
    fn fill(&mut self, pos: usize, id: JobId, alloc: &Allocation) {
        self.slots[pos].clone_from(alloc);
        self.held[pos] = true;
        self.order.push((id, pos as u32));
    }

    /// Puts the filled entries in job-id order, which the engine's
    /// id-sorted slice already gives.
    fn sort(&mut self) {
        if !self.order.windows(2).all(|w| w[0].0 < w[1].0) {
            self.order.sort_unstable_by_key(|&(id, _)| id);
        }
    }

    /// The entry of the job at `pos`, if it has one.
    fn get(&self, pos: usize) -> Option<&Allocation> {
        self.held[pos].then(|| &self.slots[pos])
    }

    /// Sets the entry of job `id` at `pos` to `alloc`, listing the job in
    /// id order if it held no entry yet this round.
    fn insert(&mut self, pos: usize, id: JobId, alloc: Allocation) {
        self.slots[pos] = alloc;
        if !self.held[pos] {
            self.held[pos] = true;
            if let Err(at) = self.order.binary_search_by_key(&id, |&(id, _)| id) {
                self.order.insert(at, (id, pos as u32));
            }
        }
    }

    /// Marks the job at `pos` changed; returns whether the mark is new.
    fn mark_changed(&mut self, pos: usize) -> bool {
        let new = !self.changed[pos];
        if new {
            self.changed[pos] = true;
            self.changed_count += 1;
        }
        new
    }

    /// Every held entry as `(job, grant)`, in job-id order.
    fn entries(&self) -> impl Iterator<Item = (JobId, &Allocation)> {
        self.order
            .iter()
            .filter(|&&(_, pos)| self.held[pos as usize])
            .map(|&(id, pos)| (id, &self.slots[pos as usize]))
    }
}

/// Mutable round state: the shared [`RoundContext`] ledger plus Rubick's
/// tentative allocation [`Table`]. Unlike the baselines, Rubick does not
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
    /// The round's id → position map, shared with [`Ctx`].
    index: &'a JobIndex,
    table: Table,
    undo: Undo,
    /// The table's victim floor once computed (see
    /// [`victim_floor`](State::victim_floor)). Only a kept search can move
    /// a GPU, since a rollback restores the table, so only a keep clears it.
    floor: Cell<Option<Option<f64>>>,
    /// The table's GPU reach once computed (see
    /// [`gpu_reach`](State::gpu_reach)), cleared like `floor`.
    reach: Cell<Option<u32>>,
}

/// The undo log of one search. Its buffers are reused across searches and
/// rounds, so logging allocates only to copy a victim's allocation.
#[cfg_attr(debug_assertions, derive(Clone))]
#[derive(Default)]
struct Undo {
    /// The free ledger at [`State::begin`].
    free: Vec<Resources>,
    /// Each victim's slice position and allocation before the search
    /// first mutated it. Victims are drawn from the table, so each had one.
    victims: Vec<(usize, Allocation)>,
    /// The slice positions this search newly marked changed.
    changed: Vec<usize>,
}

impl State<'_> {
    fn pos(&self, id: JobId) -> usize {
        self.index.get(id).expect("job known to round state")
    }

    /// Job `id`'s table entry, if it has one.
    fn get(&self, id: JobId) -> Option<&Allocation> {
        self.table.get(self.pos(id))
    }

    /// Sets job `id`'s table entry to `alloc`.
    fn insert(&mut self, id: JobId, alloc: Allocation) {
        let pos = self.pos(id);
        self.table.insert(pos, id, alloc);
    }

    /// Whether any kept search changed an entry this round.
    fn any_changed(&self) -> bool {
        self.table.changed_count > 0
    }

    /// Opens the undo log for one search.
    fn begin(&mut self) {
        self.undo.free.clear();
        self.undo.free.extend_from_slice(self.round.free());
        self.undo.victims.clear();
        self.undo.changed.clear();
    }

    /// `victim`'s allocation, logged before the search first mutates it.
    fn victim_mut(&mut self, victim: JobId) -> &mut Allocation {
        let pos = self.pos(victim);
        debug_assert!(self.table.held[pos], "victim allocated");
        let alloc = &mut self.table.slots[pos];
        if !self.undo.victims.iter().any(|(p, _)| *p == pos) {
            self.undo.victims.push((pos, alloc.clone()));
        }
        alloc
    }

    /// Drops `victim`'s emptied entry from the table.
    fn remove(&mut self, victim: JobId) {
        let pos = self.pos(victim);
        self.table.slots[pos].per_node.clear();
        self.table.held[pos] = false;
    }

    /// Marks `id` changed, logging the mark if it is new.
    fn mark_changed(&mut self, id: JobId) {
        let pos = self.pos(id);
        if self.table.mark_changed(pos) {
            self.undo.changed.push(pos);
        }
    }

    /// Restores what [`begin`](State::begin) saw: the ledger, each logged
    /// victim's allocation (re-entering one whose allocation emptied) and
    /// the changed flags. The searched job's own entry is written only
    /// when the search is kept, so it needs no log.
    fn rollback(&mut self) {
        self.round.free_mut().copy_from_slice(&self.undo.free);
        for (pos, alloc) in self.undo.victims.drain(..) {
            self.table.slots[pos] = alloc;
            self.table.held[pos] = true;
        }
        for pos in self.undo.changed.drain(..) {
            self.table.changed[pos] = false;
            self.table.changed_count -= 1;
        }
    }

    /// The lowest loss slope of any table entry that
    /// [`lowest_slope_victim`] could pick on some node, or `None` when no
    /// entry qualifies. The searched job's own entry is included: it can
    /// only lower the floor, which keeps every test against it
    /// conservative. Debug builds rescan on every cached read.
    fn victim_floor(&self, ctx: &Ctx<'_>) -> Option<f64> {
        let scan = || {
            self.table
                .entries()
                .filter_map(|(id, alloc)| victim_loss(ctx, id, alloc))
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

    /// The most GPUs any walk could add to a job's table entry: every free
    /// GPU, plus each table entry's GPUs above its own minimum, which is
    /// all [`Ctx::can_shrink`] lets the steal loop take from it. Debug
    /// builds rescan on every cached read.
    fn gpu_reach(&self, ctx: &Ctx<'_>) -> u32 {
        let scan = || {
            let free: u32 = self.round.free().iter().map(|r| r.gpus).sum();
            self.table.entries().fold(free, |reach, (id, alloc)| {
                reach + alloc.gpus().saturating_sub(ctx.minimum(id).gpus)
            })
        };
        match self.reach.get() {
            Some(reach) => {
                debug_assert_eq!(reach, scan(), "stale GPU reach");
                reach
            }
            None => {
                let reach = scan();
                self.reach.set(Some(reach));
                reach
            }
        }
    }
}

/// Whether `state` is bit-identical to `before` in the ledger and the
/// whole allocation table: every slot, held flag and changed flag (debug
/// cross-check of [`State::rollback`]).
#[cfg(debug_assertions)]
fn same_state(before: &State<'_>, state: &State<'_>) -> bool {
    let bits = |r: &Resources| (r.gpus, r.cpus, r.mem_gb.to_bits());
    let key = |s: &State<'_>| {
        let t = &s.table;
        let free: Vec<_> = s.round.free().iter().map(bits).collect();
        let slots: Vec<Vec<_>> = t
            .slots
            .iter()
            .map(|a| a.per_node.iter().map(|(n, r)| (*n, bits(r))).collect())
            .collect();
        let flags = (t.held.clone(), t.changed.clone(), t.changed_count);
        (free, slots, flags, t.order.clone())
    };
    key(before) == key(state)
}

impl<'a> Ctx<'a> {
    fn idx(&self, id: JobId) -> usize {
        self.index.get(id).expect("job known to round context")
    }

    fn snap(&self, id: JobId) -> &JobSnapshot {
        &self.jobs[self.idx(id)]
    }

    fn parts(&self, id: JobId) -> &CachedParts {
        &self.entries[self.idx(id)].parts
    }

    fn curve(&self, id: JobId) -> Option<&Arc<SensitivityCurve>> {
        self.parts(id).curve.as_ref()
    }

    fn minimum(&self, id: JobId) -> Resources {
        self.parts(id).minimum
    }

    fn model(&self, id: JobId) -> Option<&ThroughputModel> {
        self.parts(id).model.as_deref()
    }

    /// `GetBestPlan` for job `id` on `placement` under its search mode.
    /// Full search goes through the job's row of the round's memo; the
    /// restricted modes score at most one candidate and keep the checked
    /// path.
    fn best_plan(&self, id: JobId, placement: &Placement) -> Option<(ExecutionPlan, f64)> {
        let pos = self.idx(id);
        let parts = &self.entries[pos].parts;
        let model = parts.model.as_deref()?;
        let batch = self.jobs[pos].spec.global_batch;
        match &parts.search {
            PlanSearch::Full => {
                let row = parts
                    .row
                    .expect("full-search job with a model has a memo row");
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

    /// Whether the search of running job `id`, holding its snapshot's
    /// `alloc` under `plan` with no GPU to take, rolls back: its
    /// certificate when one was decided on this pair, else
    /// [`churn_guard_rejects`], recorded in the job's entry. Debug builds
    /// re-decide every hit.
    fn skip_cert(&self, id: JobId, alloc: &Allocation, plan: &ExecutionPlan) -> bool {
        let cert = &self.entries[self.idx(id)].cert;
        let hit = cert
            .borrow()
            .as_ref()
            .filter(|c| c.alloc == *alloc && c.plan == *plan)
            .map(|c| c.rolls_back);
        if let Some(rolls_back) = hit {
            debug_assert_eq!(
                rolls_back,
                churn_guard_rejects(self, id, alloc, alloc, plan),
                "stale skip cert of {id:?}"
            );
            return rolls_back;
        }
        let rolls_back = churn_guard_rejects(self, id, alloc, alloc, plan);
        *cert.borrow_mut() = Some(SkipCert {
            alloc: alloc.clone(),
            plan: *plan,
            rolls_back,
        });
        rolls_back
    }

    fn is_frozen(&self, id: JobId) -> bool {
        self.frozen[self.idx(id)]
    }

    /// Jump-aware normalized gain: sensitivity curves are lumpy (a 30B
    /// model produces zero throughput until ~12 GPUs), so the marginal
    /// value of the *next useful amount* is what matters when growing —
    /// `(value(g') − value(g)) / (g' − g)` for the smallest improving `g'`,
    /// read from the curve's [`SensitivityCurve::next_rise`]. Curves span
    /// exactly `0..=total_gpus`, so no rise lies beyond the cluster.
    fn jump_gain(&self, id: JobId, gpus: u32) -> f64 {
        let parts = self.parts(id);
        let Some(curve) = &parts.curve else {
            return 0.0;
        };
        debug_assert_eq!(curve.max_amount(), self.total_gpus);
        match curve.next_rise(gpus) {
            Some(g) => (curve.value(g) - curve.value(gpus)) / (g - gpus) as f64 / parts.norm,
            None => 0.0,
        }
    }

    /// Normalized marginal loss of one fewer GPU at `gpus` (envelope step).
    fn loss_slope(&self, id: JobId, gpus: u32) -> f64 {
        let parts = self.parts(id);
        parts
            .curve
            .as_ref()
            .map(|c| c.loss_slope(gpus) / parts.norm)
            .unwrap_or(f64::INFINITY)
    }

    /// The GPU cap of a search for job `id`. Admission is capped at the
    /// user's request (or the smallest runnable amount if the request
    /// itself is invalid): a job may not hoard the whole idle cluster the
    /// moment it arrives. Growth beyond the request happens in later rounds
    /// through the guarded running-job path, once competing demand is
    /// visible.
    fn cap_gpus(&self, id: JobId, running: bool) -> u32 {
        let pos = self.idx(id);
        let parts = &self.entries[pos].parts;
        let requested = self.jobs[pos].spec.requested.gpus;
        if !self.config.resource_realloc {
            requested
        } else if running {
            parts.g_star
        } else {
            parts.g_star.min(requested.max(parts.first_useful))
        }
    }

    /// The CPU cap of a search for job `id` whose GPU cap is `cap_gpus`.
    fn cap_cpus(&self, id: JobId, cap_gpus: u32) -> u32 {
        if self.config.resource_realloc {
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
        ((next - cur) / CPU_DELTA as f64 / self.parts(id).norm).max(0.0)
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
        ((cur - prev) / CPU_DELTA as f64 / self.parts(id).norm).max(0.0)
    }
}

/// Computes one job's context entries: fitted model, plan-search mode, GPU
/// sensitivity curve, minimum demand, best-plan memo row, and what the
/// curve and SLA baseline fix for the whole epoch (GPU caps, slope norm).
/// Pure in (snapshot spec, registry, cluster geometry) — full-search
/// curves go through the shared keyed cache, whose hit/miss pattern cannot
/// change the values.
/// Because every input is epoch-stable, the result is cached across
/// rounds in the scheduler's [`JobCache`](crate::common::JobCache); the
/// penalty-gate state (`frozen`) depends on the job's runtime and is
/// computed per round instead.
fn build_job_parts(
    registry: &ModelRegistry,
    cfg: &RubickConfig,
    snap: &JobSnapshot,
    total_gpus: u32,
    estimator: MemoryEstimator,
    memo: &mut BestPlanMemo,
) -> CachedParts {
    let search = if cfg.plan_reconfig {
        PlanSearch::Full
    } else if cfg.resource_realloc {
        PlanSearch::DpScale(snap.spec.initial_plan)
    } else {
        PlanSearch::Fixed(snap.spec.initial_plan)
    };
    let model = registry.model(&snap.spec.model.name);
    let row = match (&search, &model) {
        (PlanSearch::Full, Some(m)) => Some(memo.row(m, snap.spec.global_batch)),
        _ => None,
    };
    let curve = registry.gpu_curve(
        &snap.spec.model.name,
        &search,
        snap.spec.global_batch,
        total_gpus,
    );
    let requested = snap.spec.requested.gpus;
    // The curve spans exactly `0..=total_gpus`, so its last value is the
    // best throughput the job reaches on this cluster.
    let peak = curve.as_ref().map(|c| c.value(total_gpus));
    // The useful GPU cap: the smallest amount achieving (within 0.5 %)
    // that peak.
    let g_star = match (&curve, peak) {
        (Some(_), Some(peak)) if peak <= 0.0 => 0,
        (Some(c), Some(peak)) => c.min_amount_reaching(peak * 0.995).unwrap_or(total_gpus),
        _ => requested,
    };
    let first_useful = curve
        .as_ref()
        .and_then(|c| c.min_amount_reaching(1e-12))
        .unwrap_or(requested);
    // Slope normalization constant: the geometric mean of the job's SLA
    // baseline (throughput of the user-requested configuration) and its
    // peak. Baseline normalization alone lets jobs with weak submitted
    // plans dominate the slope order (low average JCT but heavy churn and
    // starved tails); peak normalization alone is scale-free but
    // sacrifices average JCT. The geometric mean interpolates between the
    // two.
    let baseline = job_baseline(registry, snap).unwrap_or(1.0).max(1e-9);
    let norm = (baseline * peak.filter(|v| *v > 0.0).unwrap_or(baseline))
        .sqrt()
        .max(1e-9);
    CachedParts {
        model,
        row,
        curve,
        minimum: super::minres::min_res(registry, snap, &search, cfg.resource_realloc, estimator),
        search,
        g_star,
        first_useful,
        norm,
    }
}

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
        ref mut lazy,
        ref mut tracker,
        ref mut plan_memo,
        ref mut cache,
        ref mut buffers,
    } = *sched;
    let total_gpus = cluster.schedulable_capacity().gpus;

    // ---- lazy profiling (phase ① of Fig. 4) -----------------------------
    // Unknown model types are profiled on first sight; their jobs stay in
    // the queue until the simulated profiling window elapses.
    let filtered: Option<Vec<JobSnapshot>> = lazy.as_mut().map(|lazy| {
        let ready = &mut lazy.ready_at;
        for snap in jobs {
            let name = &snap.spec.model.name;
            if registry.model(name).is_none() && !ready.contains_key(name) {
                let wall = registry
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
    let epoch_now = cfg.incremental.then(|| Epoch {
        registry_version: registry.version(),
        total_gpus,
        node_caps: cluster
            .nodes()
            .iter()
            .map(|n| n.schedulable_capacity())
            .collect(),
        tenants: tenants.to_vec(),
    });
    let mut cls: Option<Classification> = epoch_now.as_ref().map(|e| {
        // Lazy profiling filters the jobs slice, so the engine's delta
        // (expressed against the unfiltered job set) cannot be trusted
        // this round — fall back to full fingerprinting.
        if filtered.is_some() {
            tracker.clear_delta();
        }
        tracker.classify(jobs, e, cfg.reconfig_threshold)
    });
    // The round's one id → position map, shared by the state and the
    // context and handed back to the tracker at the end of the round.
    let index = match &mut cls {
        Some(c) => c.take_index(),
        None => {
            let mut index = tracker.take_index();
            index.rebuild(jobs);
            index
        }
    };

    // ---- initial state: current allocations applied --------------------
    // Built before the per-job context: the ledger check (and with it the
    // fast path) only needs the post-charge free vector, which is cheap.
    let mut state = State {
        round: RoundContext::new(cluster, jobs),
        index: &index,
        table: std::mem::take(&mut buffers.table),
        undo: std::mem::take(&mut buffers.undo),
        floor: Cell::new(None),
        reach: Cell::new(None),
    };
    let table = &mut state.table;
    table.reset(jobs.len());
    state
        .round
        .charge_running(|pos, alloc| table.fill(pos, jobs[pos].id(), alloc));
    table.sort();

    // ---- ledger check + fast path --------------------------------------
    // Capacity growth (a job finished or was evicted elsewhere) gives
    // non-satiated searches something to grab, so only the satiated skips
    // survive it; any shrink is maximally conservative. When every job is
    // clean, the previous round was quiet and the ledger is bit-identical,
    // the whole round is provably a verbatim re-emit.
    if let Some(c) = &mut cls {
        match state.round.delta_vs(tracker.projected_free()) {
            LedgerDelta::Unchanged => {}
            LedgerDelta::Grown(_) => c.demote_quiet(),
            LedgerDelta::Shrunk(_) => c.demote_all(),
        }
        if c.fast_eligible() {
            let classified = c.classified;
            buffers.table = state.table;
            buffers.undo = state.undo;
            tracker.restore_index(index);
            return tracker.fast_path(jobs, classified);
        }
    }

    // ---- build round context ------------------------------------------
    // Every round, incremental or full, builds the epoch-stable parts
    // (curve, caps, norm, minimum demand) only of the jobs the cache does
    // not hold. One estimator (a cheap `Copy` of the GPU memory capacity)
    // serves every minimum-demand search and the allocation passes below.
    let estimator = MemoryEstimator::new(cluster.shape().gpu_mem_gb);
    let entries = cache.refresh(registry, total_gpus, jobs, |snap| RubickEntry {
        parts: build_job_parts(registry, cfg, snap, total_gpus, estimator, plan_memo),
        cert: RefCell::new(None),
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
        index: &index,
        jobs,
        entries,
        memo: RefCell::new(plan_memo),
        frozen: &buffers.frozen,
        estimator,
        total_gpus,
    };

    // The skip predicate of the incremental round: satiated-clean jobs
    // skip their (provably no-op) visit unconditionally; quiet-clean jobs
    // skip only while nothing has mutated the round state yet — the first
    // lasting mutation voids every positional no-op certificate, and all
    // later jobs are searched exactly as in a full round.
    let may_skip = |state: &State<'_>, id: &JobId| -> bool {
        cls.as_ref().is_some_and(|c| match c.verdict(ctx.idx(*id)) {
            Verdict::SkipAlways => true,
            Verdict::QuietSkip => !state.any_changed(),
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
            s.spec.class == JobClass::BestEffort && now - s.queued_since > STARVATION_TIMEOUT
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
    // Sort by jump-aware slope with queue aging: a job's priority rises as
    // it waits, smoothly generalizing the hard starvation promotion so
    // large lumpy-curve jobs (low slope-per-GPU) still get scheduled.
    // Keys are computed once per job, not per comparison: the comparator
    // used to re-derive them (curve queries) O(n log n) times, which
    // dominated mostly-skipped incremental rounds. Same values, same
    // tie-break, so the order — and every golden — is unchanged.
    let rest = &mut buffers.rest;
    rest.clear();
    rest.extend(
        jobs.iter()
            .enumerate()
            .filter(|(pos, s)| {
                // Queued jobs already admitted by the privileged/starvation
                // passes hold an allocation in `state` and are done this
                // round.
                (s.status.is_queued()
                    && s.spec.class == JobClass::BestEffort
                    && !state.table.held[*pos])
                    || s.status.is_running()
            })
            .map(|(pos, s)| {
                let gpus = state.table.get(pos).map_or(0, Allocation::gpus);
                let slope = ctx.jump_gain(s.id(), gpus);
                let age = if s.status.is_queued() {
                    (now - s.queued_since).max(0.0) / STARVATION_TIMEOUT
                } else {
                    0.0
                };
                (slope * (1.0 + age), s.id())
            }),
    );
    rest.sort_by(|(pa, a), (pb, b)| pb.total_cmp(pa).then(a.cmp(b)));
    for &(_, id) in rest.iter() {
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
    // Quietness is judged *before* emit (emit only reads the table): a
    // round with no changed entry left the state bit-identical to its
    // start, which is exactly what next round's quiet-skip certificates
    // need.
    let quiet = !state.any_changed();
    let out = emit(&ctx, &mut state);
    buffers.table = state.table;
    buffers.undo = state.undo;

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
        tracker.record(jobs, &out, e, quiet, cfg.reconfig_threshold, |id, alloc| {
            is_satiated(&ctx, id, alloc)
        });
    }
    tracker.restore_index(index);
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
    for (other, alloc) in state.table.entries() {
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
        state.reach.set(None);
    } else {
        state.rollback();
        #[cfg(debug_assertions)]
        assert!(same_state(&before, state), "inexact rollback of {id:?}");
    }
}

/// Whether the search of job `id` provably rolls back, so
/// [`schedule_job`] can skip the walk (DESIGN.md §8). Two cases qualify.
/// A job below its GPU minimum that could not reach it with every GPU of
/// the table's [`gpu_reach`](State::gpu_reach) fails the minimum. On a
/// ledger with no free GPU, so does a search whose job cannot take a GPU
/// from any victim ([`takes_no_gpu`]): its walk can add only CPUs and
/// host memory. Without a GPU the grant fails a GPU minimum or has no
/// plan. With GPUs, the job must be running on its snapshot's allocation,
/// whose verdict is certified per job ([`Ctx::skip_cert`]), or on fewer
/// GPUs.
fn rolls_back_untouched(ctx: &Ctx<'_>, state: &State<'_>, id: JobId) -> bool {
    let cur = state.get(id);
    let gpus = cur.map_or(0, Allocation::gpus);
    let min_gpus = ctx.minimum(id).gpus;
    if gpus < min_gpus && gpus + state.gpu_reach(ctx) < min_gpus {
        #[cfg(test)]
        tests::REACH_SKIPS.with(|n| n.set(n.get() + 1));
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
fn churn_guard_rejects(
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
            tentative.add(n, take);
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
            let victim_gpus = state.get(victim).expect("victim allocated").gpus();
            let victim_loss = ctx.loss_slope(victim, victim_gpus);
            if below_min || victim_loss < my_gain * SHRINK_HYSTERESIS {
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
    trim_to_demand(state.round.free_mut(), &mut tentative, &demand);

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
            if state.undo.victims.is_empty() && state.get(id) == Some(&tentative) {
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

    let pos = state.pos(id);
    state.insert(id, tentative);
    state.table.mark_changed(pos);
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
    for (cand, alloc) in state.table.entries() {
        if cand == id {
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
        let Some(loss) = victim_loss(ctx, cand, alloc) else {
            continue;
        };
        if best.as_ref().map(|(_, b)| loss < *b).unwrap_or(true) {
            best = Some((cand, loss));
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
        state.remove(victim);
    }
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
        for (cand, alloc) in state.table.entries() {
            if cand == id || ctx.is_frozen(cand) {
                continue;
            }
            let on_node = alloc
                .per_node
                .iter()
                .find(|(i, _)| *i == n)
                .map(|(_, r)| r.cpus)
                .unwrap_or(0);
            let min_cpus = ctx.minimum(cand).cpus;
            if on_node < CPU_DELTA || alloc.total().cpus < min_cpus + CPU_DELTA {
                continue;
            }
            let c_snap = ctx.snap(cand);
            let Some(plan) = c_snap.plan().copied() else {
                continue;
            };
            let loss = ctx.cpu_loss(cand, &plan, &alloc.to_placement());
            if best.as_ref().map(|(_, b)| loss < *b).unwrap_or(true) {
                best = Some((cand, loss));
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
        tentative.add(n, Resources::new(0, CPU_DELTA, 0.0));
    }
}

/// Returns GPUs above `target` to the free pool, smallest per-node grants
/// first (consolidation).
fn shrink_alloc_to(free: &mut [Resources], tentative: &mut Allocation, target: u32) {
    drop_gpus_to(tentative, target, |node| {
        free[node] += Resources::new(1, 0, 0.0)
    });
}

/// Drops GPUs above `target` from `tentative`, smallest per-node grants
/// first, calling `freed` with each dropped GPU's node.
fn drop_gpus_to(tentative: &mut Allocation, target: u32, mut freed: impl FnMut(usize)) {
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
/// the chosen plan's demand, returning the excess to the free pool.
fn trim_to_demand(
    free: &mut [Resources],
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
            free[*node] += Resources::new(0, back, 0.0);
            excess_cpus -= back;
        }
        if excess_mem > 0.0 {
            let back = excess_mem.min(res.mem_gb);
            res.mem_gb -= back;
            free[*node] += Resources::new(0, 0, back);
            excess_mem -= back;
        }
    }
    tentative.per_node.retain(|(_, r)| r.any_positive());
}

/// Builds the final assignment list: recompute plans for changed jobs,
/// reproduce current configs verbatim for untouched ones.
fn emit(ctx: &Ctx<'_>, state: &mut State<'_>) -> Vec<Assignment> {
    let State { round, table, .. } = state;
    let mut out = Vec::new();
    for &(id, pos) in &table.order {
        let pos = pos as usize;
        let alloc = &table.slots[pos];
        if !table.held[pos] || alloc.is_empty() {
            continue;
        }
        let snap = &ctx.jobs[pos];
        if !table.changed[pos] {
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
            shrink_alloc_to(round.free_mut(), &mut alloc, plan.gpus());
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
        trim_to_demand(round.free_mut(), &mut alloc, &demand);
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
    use crate::common::testing::{job, snapshot, RESOLVED};
    use crate::registry::ModelRegistry;
    use crate::rubick::{RubickConfig, RubickScheduler};
    use rubick_model::{ExecutionPlan, MemoryMode, ModelSpec, NodeShape, Resources};
    use rubick_sim::cluster::{Allocation, Cluster};
    use rubick_sim::engine::{Engine, EngineConfig};
    use rubick_sim::job::{JobClass, JobSpec, JobStatus};
    use rubick_sim::scheduler::{Assignment, ClusterDelta, JobSnapshot, Scheduler};
    use rubick_sim::tenant::{Tenant, TenantId};
    use rubick_sim::SimReport;
    use rubick_testbed::TestbedOracle;
    use std::cell::Cell;
    use std::sync::Arc;

    thread_local! {
        /// Searches this thread's rounds skipped on the GPU-reach
        /// certificate.
        pub(super) static REACH_SKIPS: Cell<u64> = const { Cell::new(0) };
    }

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

    /// Schedules a queued best-effort RoBERTa job next to a best-effort
    /// `victim` model holding all 8 GPUs of the one node, so the ledger has
    /// no free GPU. The queued job's minimum is zero: it takes a GPU only
    /// if the victim's loss slope is below its gain times the hysteresis.
    fn queued_next_to(victim: ModelSpec) -> Vec<Assignment> {
        let oracle = TestbedOracle::new(24);
        let grower = ModelSpec::roberta_large();
        let reg = registry(&oracle, &[victim.clone(), grower.clone()]);
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
            job(2, grower, 1, ExecutionPlan::dp(1), 1_000_000),
            JobStatus::Queued,
        );
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
    fn assert_matches_cold(
        warm: &mut RubickScheduler,
        reg: &Arc<ModelRegistry>,
        jobs: &[JobSnapshot],
    ) {
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
    /// cluster's GPU count only, so every entry keeps its certificate. So
    /// does a re-plan forced by a notified cluster delta. A change of the
    /// GPU count resolves every job again.
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
        sched.notify(&ClusterDelta::NodeUp(0));
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
