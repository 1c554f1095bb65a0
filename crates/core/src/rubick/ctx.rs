//! The per-round immutable context of the Rubick policy: each job's
//! cached model, curve, caps and minimum, its skip certificate, and the
//! slopes the passes and the search read from them.

use super::certs::churn_guard_rejects;
use super::grow::CPU_DELTA;
use super::RubickConfig;
use crate::common::{job_baseline, same_arc, CacheEntry, Cached, JobIndex, PlanSearch};
use crate::registry::ModelRegistry;
use rubick_model::{
    BestPlanMemo, ExecutionPlan, MemoRow, MemoryEstimator, Placement, PlanSetCache, Resources,
    SensitivityCurve, ThroughputModel,
};
use rubick_sim::cluster::Allocation;
use rubick_sim::job::{JobClass, JobId};
use rubick_sim::scheduler::JobSnapshot;
use std::cell::RefCell;
use std::sync::Arc;

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
    pub(super) cert: RefCell<Option<SkipCert>>,
}

/// A running job's skip verdict on a GPU-full ledger (DESIGN.md §8). Once
/// the job's table entry equals its snapshot's allocation, whether its
/// search rolls back ([`churn_guard_rejects`]) is a fact of the snapshot's
/// `(allocation, plan)` under the entry's parts, so it is decided once and
/// kept in the entry.
pub(super) struct SkipCert {
    pub(super) alloc: Allocation,
    pub(super) plan: ExecutionPlan,
    pub(super) rolls_back: bool,
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
pub(super) struct Ctx<'a> {
    pub(super) config: &'a RubickConfig,
    pub(super) index: &'a JobIndex,
    pub(super) jobs: &'a [JobSnapshot],
    pub(super) entries: &'a [Cached<RubickEntry>],
    pub(super) memo: RefCell<&'a mut BestPlanMemo>,
    pub(super) frozen: &'a [bool],
    pub(super) estimator: MemoryEstimator,
    pub(super) total_gpus: u32,
}

impl<'a> Ctx<'a> {
    #[inline]
    pub(super) fn snap(&self, id: JobId) -> &JobSnapshot {
        &self.jobs[self.index.pos(id)]
    }

    #[inline]
    fn parts(&self, id: JobId) -> &CachedParts {
        &self.entries[self.index.pos(id)].parts
    }

    #[inline]
    pub(super) fn curve(&self, id: JobId) -> Option<&Arc<SensitivityCurve>> {
        self.parts(id).curve.as_ref()
    }

    #[inline]
    pub(super) fn minimum(&self, id: JobId) -> Resources {
        self.parts(id).minimum
    }

    #[inline]
    pub(super) fn model(&self, id: JobId) -> Option<&ThroughputModel> {
        self.parts(id).model.as_deref()
    }

    /// `GetBestPlan` for job `id` on `placement` under its search mode.
    /// Full search goes through the job's row of the round's memo; the
    /// restricted modes score at most one candidate and keep the checked
    /// path.
    pub(super) fn best_plan(&self, id: JobId, at: &Placement) -> Option<(ExecutionPlan, f64)> {
        let pos = self.index.pos(id);
        let parts = &self.entries[pos].parts;
        let model = parts.model.as_deref()?;
        let batch = self.jobs[pos].spec.global_batch;
        match &parts.search {
            PlanSearch::Full => {
                let row = parts
                    .row
                    .expect("full-search job with a model has a memo row");
                self.memo
                    .borrow_mut()
                    .best_plan_at(row, model, PlanSetCache::global(), batch, at)
            }
            search => search.best_plan(model, batch, at),
        }
    }

    /// Whether the search of running job `id`, holding its snapshot's
    /// `alloc` under `plan` with no GPU to take, rolls back: its
    /// certificate when one was decided on this pair, else
    /// [`churn_guard_rejects`], recorded in the job's entry. Debug builds
    /// re-decide every hit.
    pub(super) fn skip_cert(&self, id: JobId, alloc: &Allocation, plan: &ExecutionPlan) -> bool {
        let cert = &self.entries[self.index.pos(id)].cert;
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

    #[inline]
    pub(super) fn is_frozen(&self, id: JobId) -> bool {
        self.frozen[self.index.pos(id)]
    }

    /// Jump-aware normalized gain: sensitivity curves are lumpy (a 30B
    /// model produces zero throughput until ~12 GPUs), so the marginal
    /// value of the *next useful amount* is what matters when growing —
    /// `(value(g') − value(g)) / (g' − g)` for the smallest improving `g'`,
    /// read from the curve's [`SensitivityCurve::next_rise`]. Curves span
    /// exactly `0..=total_gpus`, so no rise lies beyond the cluster.
    pub(super) fn jump_gain(&self, id: JobId, gpus: u32) -> f64 {
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
    pub(super) fn loss_slope(&self, id: JobId, gpus: u32) -> f64 {
        let parts = self.parts(id);
        let slope = parts
            .curve
            .as_ref()
            .map(|c| c.loss_slope(gpus) / parts.norm);
        slope.unwrap_or(f64::INFINITY)
    }

    /// The GPU cap of a search for job `id`. Admission is capped at the
    /// user's request (or the smallest runnable amount if the request
    /// itself is invalid): a job may not hoard the whole idle cluster the
    /// moment it arrives. Growth beyond the request happens in later rounds
    /// through the guarded running-job path, once competing demand is
    /// visible.
    pub(super) fn cap_gpus(&self, id: JobId, running: bool) -> u32 {
        let pos = self.index.pos(id);
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
    pub(super) fn cap_cpus(&self, id: JobId, cap_gpus: u32) -> u32 {
        if self.config.resource_realloc {
            (10 * cap_gpus + 4).max(self.minimum(id).cpus)
        } else {
            self.snap(id).spec.requested.cpus
        }
    }

    /// Whether shrinking `victim` from `gpus` to `gpus − 1` is permitted:
    /// stay above its minimum, and either remain runnable or (best-effort
    /// only) be preempted to zero.
    pub(super) fn can_shrink(&self, victim: JobId, gpus: u32) -> bool {
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
        self.curve(victim).is_some_and(|c| c.value(new_gpus) > 0.0)
    }

    /// Normalized throughput gain per CPU of [`CPU_DELTA`] more CPUs than
    /// placement `at` holds, for job `id` under `plan` (direct model
    /// evaluation; CPUs only matter for offloaded optimizers), or `None`
    /// without a model. A victim's loss of `CPU_DELTA` CPUs is this slope
    /// at `CPU_DELTA` fewer.
    pub(super) fn cpu_slope(&self, id: JobId, plan: &ExecutionPlan, at: &Placement) -> Option<f64> {
        let m = self.model(id)?;
        let batch = self.snap(id).spec.global_batch;
        let tput = |p| m.params.throughput(&m.spec, plan, batch, p, &m.env);
        let more = Placement {
            cpus: at.cpus + CPU_DELTA,
            ..at.clone()
        };
        let step = tput(&more) - tput(at);
        Some((step / CPU_DELTA as f64 / self.parts(id).norm).max(0.0))
    }
}

/// Computes one job's cache entry: fitted model, plan-search mode, GPU
/// sensitivity curve, minimum demand, best-plan memo row, and what the
/// curve and SLA baseline fix for the whole epoch (GPU caps, slope norm),
/// with no skip certificate yet.
/// Pure in (snapshot spec, registry, cluster geometry) — full-search
/// curves go through the shared keyed cache, whose hit/miss pattern cannot
/// change the values.
/// Because every input is epoch-stable, the result is cached across
/// rounds in the scheduler's [`JobCache`](crate::common::JobCache); the
/// penalty-gate state (`frozen`) depends on the job's runtime and is
/// computed per round instead.
pub(super) fn build_job_parts(
    registry: &ModelRegistry,
    cfg: &RubickConfig,
    snap: &JobSnapshot,
    total_gpus: u32,
    estimator: MemoryEstimator,
    memo: &mut BestPlanMemo,
) -> RubickEntry {
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
    let parts = CachedParts {
        model,
        row,
        curve,
        minimum: super::minres::min_res(registry, snap, &search, cfg.resource_realloc, estimator),
        search,
        g_star,
        first_useful,
        norm,
    };
    RubickEntry {
        parts,
        cert: RefCell::new(None),
    }
}
