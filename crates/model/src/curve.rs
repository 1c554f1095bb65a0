//! Resource sensitivity curves (paper §5.2, Fig. 6).
//!
//! A sensitivity curve depicts a job's best achievable throughput as one
//! resource type scales while others stay fixed, always picking the best
//! execution plan at each amount. Two properties matter to the scheduler:
//!
//! * the curve is a **monotone envelope** — "the curve remains flat for
//!   invalid GPU numbers as it only considers the maximum throughput
//!   achievable within the given GPU range";
//! * its **slopes** rank jobs by marginal benefit, driving both the
//!   allocation order (`SortBySlope`) and the shrink decision
//!   (`GetLowestSlopeOverMinJob`) of Algorithm 1.
//!
//! Curves are pure functions of `(model type, batch, plan-search mode,
//! context)`, so [`CurveCache`] memoizes them behind an `RwLock` — one
//! cache for every policy's search mode — and can pre-compute them ("the
//! curves can be computed in parallel or even prior to the scheduling,
//! and then cached for reuse").

use crate::perf::ThroughputModel;
use crate::placement::Placement;
use crate::plan::ExecutionPlan;
use crate::resources::ResourceKind;
use crate::search::PlanSearch;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// One point of a sensitivity curve: the best plan and throughput at a
/// given resource amount (plan is `None` when no plan is feasible there).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// The resource amount (GPUs or CPUs).
    pub amount: u32,
    /// Best raw throughput at exactly this amount, samples/s (0 if
    /// infeasible).
    pub raw_throughput: f64,
    /// Monotone-envelope throughput: best achievable with *up to* this
    /// amount.
    pub envelope: f64,
    /// The plan achieving `raw_throughput`.
    pub plan: Option<ExecutionPlan>,
    /// Index (== amount) of the point achieving `envelope` — the latest
    /// point `j <= amount` whose raw throughput equals the envelope, so
    /// [`SensitivityCurve::best_plan_at`] is O(1) instead of a float-equality
    /// walk-back. 0 in the infeasible prefix where the envelope is still 0.
    pub envelope_idx: u32,
    /// The next useful amount: the smallest larger amount whose envelope
    /// beats this point's by more than `1e-12`, or `None` when the
    /// envelope never rises again. Makes
    /// [`SensitivityCurve::next_rise`] O(1) instead of a forward walk.
    pub next_rise: Option<u32>,
}

/// A job's throughput as a function of one resource amount, best plan
/// chosen at every point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityCurve {
    /// Which resource this curve scales.
    pub kind: ResourceKind,
    /// Points for amounts `0..=max` (index = amount).
    pub points: Vec<CurvePoint>,
}

impl SensitivityCurve {
    /// Builds a curve from a per-amount best-plan oracle: `best(a)` is
    /// evaluated for `1..=max_amount` (amount 0 is always the zero point)
    /// and the monotone envelope plus its achieving index are tracked in the
    /// same pass.
    ///
    /// This is the single construction path for every curve, so the
    /// `envelope_idx` and `next_rise` bookkeeping that makes
    /// [`best_plan_at`](SensitivityCurve::best_plan_at) and
    /// [`next_rise`](SensitivityCurve::next_rise) O(1) lives in exactly one
    /// place.
    pub fn from_fn(
        kind: ResourceKind,
        max_amount: u32,
        mut best: impl FnMut(u32) -> Option<(ExecutionPlan, f64)>,
    ) -> Self {
        let mut points = Vec::with_capacity(max_amount as usize + 1);
        points.push(CurvePoint {
            amount: 0,
            raw_throughput: 0.0,
            envelope: 0.0,
            plan: None,
            envelope_idx: 0,
            next_rise: None,
        });
        let mut env_best = 0.0f64;
        let mut env_idx = 0u32;
        for a in 1..=max_amount {
            let found = best(a);
            let raw = found.as_ref().map(|(_, t)| *t).unwrap_or(0.0);
            let plan = found.map(|(p, _)| p);
            env_best = env_best.max(raw);
            // A positive raw equal to the envelope always comes with a plan,
            // so the stored index points at the latest envelope-achieving
            // plan — matching the walk-back this replaces.
            if plan.is_some() && (raw - env_best).abs() < 1e-12 {
                env_idx = a;
            }
            points.push(CurvePoint {
                amount: a,
                raw_throughput: raw,
                envelope: env_best,
                plan,
                envelope_idx: env_idx,
                next_rise: None,
            });
        }
        // Backward, so each point can reuse its successor's answer: on a
        // bit-identical plateau the threshold is the same and the successor
        // does not beat it, so the rise is the successor's; anywhere else
        // the rise is found by a forward walk, which ends at the first step
        // above `1e-12` — at once on any real throughput step.
        for a in (0..max_amount as usize).rev() {
            let here = points[a].envelope;
            let next = &points[a + 1];
            points[a].next_rise = if next.envelope.to_bits() == here.to_bits() {
                next.next_rise
            } else {
                points[a + 1..]
                    .iter()
                    .find(|p| p.envelope > here + 1e-12)
                    .map(|p| p.amount)
            };
        }
        SensitivityCurve { kind, points }
    }

    /// Builds the GPU sensitivity curve: amounts `0..=max_gpus`, with CPUs
    /// and host memory scaling proportionally to a packed placement
    /// (matching how the scheduler packs jobs onto nodes).
    pub fn for_gpus(model: &ThroughputModel, global_batch: u32, max_gpus: u32) -> Self {
        SensitivityCurve::from_fn(ResourceKind::Gpu, max_gpus, |g| {
            let placement = Placement::packed(g, &model.shape);
            model.best_plan(global_batch, &placement)
        })
    }

    /// Builds the CPU sensitivity curve at a fixed GPU count: amounts
    /// `0..=max_cpus`, host memory fixed at the packed share.
    pub fn for_cpus(model: &ThroughputModel, global_batch: u32, gpus: u32, max_cpus: u32) -> Self {
        // One packed placement reused across points; only `cpus` varies.
        let mut placement = Placement::packed(gpus, &model.shape);
        SensitivityCurve::from_fn(ResourceKind::Cpu, max_cpus, move |c| {
            placement.cpus = c;
            model.best_plan(global_batch, &placement)
        })
    }

    /// The largest amount the curve covers.
    pub fn max_amount(&self) -> u32 {
        (self.points.len() as u32).saturating_sub(1)
    }

    /// Monotone-envelope throughput at `amount` (clamped to the curve's
    /// range).
    pub fn value(&self, amount: u32) -> f64 {
        let idx = (amount as usize).min(self.points.len().saturating_sub(1));
        self.points.get(idx).map(|p| p.envelope).unwrap_or(0.0)
    }

    /// The best plan using at most `amount` of the resource, together with
    /// its throughput.
    ///
    /// O(1): the envelope-achieving index is precomputed at construction
    /// ([`CurvePoint::envelope_idx`]) instead of walked back to on every
    /// query.
    pub fn best_plan_at(&self, amount: u32) -> Option<(ExecutionPlan, f64)> {
        let idx = (amount as usize).min(self.points.len().saturating_sub(1));
        let point = self.points.get(idx)?;
        if point.envelope <= 0.0 {
            return None;
        }
        let achieving = &self.points[point.envelope_idx as usize];
        achieving.plan.map(|plan| (plan, achieving.raw_throughput))
    }

    /// The next useful amount above `amount`: the smallest larger amount
    /// whose envelope beats `value(amount) + 1e-12`, or `None` when the
    /// curve never rises again (always `None` from the curve's maximum on).
    /// Curves can be lumpy — a fixed TP8 plan only runs at exactly 8 GPUs —
    /// so growth jumps here, not by one unit.
    ///
    /// O(1): read from [`CurvePoint::next_rise`]. Debug builds check it
    /// against the forward walk it replaces.
    pub fn next_rise(&self, amount: u32) -> Option<u32> {
        let rise = self.points.get(amount as usize)?.next_rise;
        debug_assert_eq!(
            rise,
            crate::reference::next_rise_naive(self, amount),
            "next_rise({amount}) diverges from the forward walk"
        );
        rise
    }

    /// Marginal gain of adding one unit at `amount`:
    /// `value(amount+1) − value(amount)`.
    pub fn gain_slope(&self, amount: u32) -> f64 {
        self.value(amount + 1) - self.value(amount)
    }

    /// Marginal loss of removing one unit at `amount`:
    /// `value(amount) − value(amount−1)` (0 at amount 0).
    pub fn loss_slope(&self, amount: u32) -> f64 {
        if amount == 0 {
            0.0
        } else {
            self.value(amount) - self.value(amount - 1)
        }
    }

    /// The smallest amount whose envelope reaches `target` throughput, if
    /// any — the 1-D building block of the `minRes` SLA search.
    pub fn min_amount_reaching(&self, target: f64) -> Option<u32> {
        self.points
            .iter()
            .find(|p| p.envelope >= target - 1e-12)
            .map(|p| p.amount)
    }
}

/// Cache key under one model type: batch + search mode + curve context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CurveKey {
    batch: u32,
    kind: ResourceKind,
    /// The plan-search mode the curve was built under: full search, or a
    /// DP-rescale / fixed variant carrying its plan. CPU curves are always
    /// full search.
    search: PlanSearch,
    /// Curve context: `(fixed GPU count, max amount)` for CPU curves,
    /// `(0, max amount)` for GPU curves — a tuple, so the components can
    /// never collide.
    context: (u32, u32),
}

/// A concurrent cache of sensitivity curves, keyed by model type.
///
/// Curves only depend on the model type and search mode (not the
/// individual job), so all jobs of one type — and, under a restricted
/// search, the same initial plan — share cached curves across scheduling
/// rounds.
///
/// Entries are grouped by model type: a lookup hashes the borrowed model
/// name instead of cloning it into a key, and
/// [`invalidate_model`](CurveCache::invalidate_model) drops the model's
/// whole group, every search mode at once.
///
/// Each entry is a per-key [`OnceLock`] cell: on a miss the cell is inserted
/// under the write lock (double-checked by `entry().or_insert_with`) and the
/// curve is computed *outside* the map lock inside the cell. Two threads
/// racing on the same key therefore never compute the curve twice — the
/// loser blocks on the cell — while threads computing *different* keys stay
/// fully parallel.
#[must_use = "a cache that is never queried does nothing"]
#[derive(Debug, Default)]
pub struct CurveCache {
    curves: RwLock<HashMap<String, HashMap<CurveKey, CurveCell>>>,
}

/// One cached curve, filled at most once.
type CurveCell = Arc<OnceLock<Arc<SensitivityCurve>>>;

impl CurveCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        CurveCache::default()
    }

    /// Number of cached curves.
    pub fn len(&self) -> usize {
        self.curves.read().values().map(HashMap::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.curves.read().is_empty()
    }

    /// Drops all cached curves of one model type, under every search mode
    /// (e.g. after an online refit changed the model parameters).
    pub fn invalidate_model(&self, model_name: &str) {
        self.curves.write().remove(model_name);
    }

    /// Returns the GPU curve for `model` under `search`, computing and
    /// caching it on first use.
    pub fn gpu_curve(
        &self,
        model: &ThroughputModel,
        search: &PlanSearch,
        global_batch: u32,
        max_gpus: u32,
    ) -> Arc<SensitivityCurve> {
        let key = CurveKey {
            batch: global_batch,
            kind: ResourceKind::Gpu,
            search: *search,
            context: (0, max_gpus),
        };
        self.get_or_compute(&model.spec.name, key, || {
            Arc::new(search.gpu_curve(model, global_batch, max_gpus))
        })
    }

    /// Returns the CPU curve for `model` at a fixed GPU count, computing
    /// and caching it on first use.
    pub fn cpu_curve(
        &self,
        model: &ThroughputModel,
        global_batch: u32,
        gpus: u32,
        max_cpus: u32,
    ) -> Arc<SensitivityCurve> {
        let key = CurveKey {
            batch: global_batch,
            kind: ResourceKind::Cpu,
            search: PlanSearch::Full,
            context: (gpus, max_cpus),
        };
        self.get_or_compute(&model.spec.name, key, || {
            Arc::new(SensitivityCurve::for_cpus(
                model,
                global_batch,
                gpus,
                max_cpus,
            ))
        })
    }

    /// The shared lookup path: fast read-locked hit, double-checked cell
    /// insert on miss, curve computation inside the per-key cell (outside
    /// the map lock).
    fn get_or_compute(
        &self,
        model: &str,
        key: CurveKey,
        compute: impl FnOnce() -> Arc<SensitivityCurve>,
    ) -> Arc<SensitivityCurve> {
        // `read()` must be released before `write()` is taken; binding the
        // lookup result first ends the guard temporary's lifetime (in an
        // `if let`/`else` the scrutinee temporary would live through the
        // `else` block and deadlock on the write lock).
        let existing = self
            .curves
            .read()
            .get(model)
            .and_then(|curves| curves.get(&key))
            .map(Arc::clone);
        let cell = if let Some(cell) = existing {
            cell
        } else {
            let mut curves = self.curves.write();
            let curves = curves.entry(model.to_string()).or_default();
            Arc::clone(curves.entry(key).or_default())
        };
        Arc::clone(cell.get_or_init(compute))
    }

    /// Pre-computes the full-search GPU curve of every model — the
    /// "prior to the scheduling" optimization of §5.2.
    pub fn precompute_gpu_curves(
        &self,
        models: &[ThroughputModel],
        global_batch: impl Fn(&ThroughputModel) -> u32,
        max_gpus: u32,
    ) {
        for model in models {
            self.gpu_curve(model, &PlanSearch::Full, global_batch(model), max_gpus);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ClusterEnv;
    use crate::perf::PerfParams;
    use crate::resources::NodeShape;
    use crate::spec::ModelSpec;

    fn model(spec: ModelSpec) -> ThroughputModel {
        ThroughputModel::new(
            spec,
            PerfParams::default(),
            ClusterEnv::a800(),
            NodeShape::a800(),
        )
    }

    #[test]
    fn envelope_is_monotone() {
        let m = model(ModelSpec::gpt2_xl());
        let curve = SensitivityCurve::for_gpus(&m, 16, 16);
        for w in curve.points.windows(2) {
            assert!(w[1].envelope >= w[0].envelope);
        }
    }

    #[test]
    fn gpu_curve_flat_at_infeasible_amounts() {
        // LLaMA-30B is infeasible below ~12 GPUs: envelope stays 0 then rises.
        let m = model(ModelSpec::llama_30b());
        let curve = SensitivityCurve::for_gpus(&m, 64, 24);
        assert_eq!(curve.value(1), 0.0);
        assert_eq!(curve.value(4), 0.0);
        assert!(curve.value(24) > 0.0);
    }

    #[test]
    fn slopes_are_consistent_with_values() {
        let m = model(ModelSpec::roberta_large());
        let curve = SensitivityCurve::for_gpus(&m, 64, 8);
        for g in 0..8 {
            assert!((curve.gain_slope(g) - (curve.value(g + 1) - curve.value(g))).abs() < 1e-12);
        }
        assert_eq!(curve.loss_slope(0), 0.0);
    }

    #[test]
    fn best_plan_at_uses_fewer_gpus_when_invalid() {
        let m = model(ModelSpec::gpt2_xl());
        let curve = SensitivityCurve::for_gpus(&m, 16, 16);
        // Whatever amount we ask for, the returned plan must fit within it.
        for g in 1..=16 {
            if let Some((plan, _)) = curve.best_plan_at(g) {
                assert!(plan.gpus() <= g);
            }
        }
    }

    #[test]
    fn min_amount_reaching_inverts_value() {
        let m = model(ModelSpec::bert_large());
        let curve = SensitivityCurve::for_gpus(&m, 64, 8);
        let target = curve.value(4);
        let g = curve.min_amount_reaching(target).unwrap();
        assert!(g <= 4);
        assert!(curve.value(g) >= target - 1e-12);
    }

    #[test]
    fn cache_hits_return_same_arc() {
        let cache = CurveCache::new();
        let m = model(ModelSpec::vit_base());
        let a = cache.gpu_curve(&m, &PlanSearch::Full, 128, 8);
        let b = cache.gpu_curve(&m, &PlanSearch::Full, 128, 8);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    /// Bitwise equality of two curves over every point: floats by bit
    /// pattern, plans and envelope indices exactly.
    fn assert_bitwise_eq(a: &SensitivityCurve, b: &SensitivityCurve) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.points.len(), b.points.len());
        for (p, q) in a.points.iter().zip(&b.points) {
            assert_eq!(p.amount, q.amount);
            assert_eq!(p.raw_throughput.to_bits(), q.raw_throughput.to_bits());
            assert_eq!(p.envelope.to_bits(), q.envelope.to_bits());
            assert_eq!(p.plan, q.plan);
            assert_eq!(p.envelope_idx, q.envelope_idx);
            assert_eq!(p.next_rise, q.next_rise);
        }
    }

    #[test]
    fn cached_restricted_curves_match_fresh_ones() {
        let cache = CurveCache::new();
        let m = model(ModelSpec::gpt2_xl());
        for search in [
            PlanSearch::DpScale(ExecutionPlan::dp(2)),
            PlanSearch::Fixed(ExecutionPlan::dp(4)),
            PlanSearch::Fixed(ExecutionPlan::three_d(1, 8, 1, 1)),
        ] {
            let fresh = search.gpu_curve(&m, 16, 16);
            assert!(fresh.value(16) > 0.0, "{search:?} never runs");
            let cached = cache.gpu_curve(&m, &search, 16, 16);
            assert_bitwise_eq(&cached, &fresh);
            // The second lookup is a hit on the same entry.
            assert!(Arc::ptr_eq(&cached, &cache.gpu_curve(&m, &search, 16, 16)));
        }
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn dp_scale_and_fixed_curves_of_one_plan_never_alias() {
        let cache = CurveCache::new();
        let m = model(ModelSpec::roberta_large());
        let plan = ExecutionPlan::dp(2);
        let scaled = cache.gpu_curve(&m, &PlanSearch::DpScale(plan), 64, 8);
        let fixed = cache.gpu_curve(&m, &PlanSearch::Fixed(plan), 64, 8);
        let full = cache.gpu_curve(&m, &PlanSearch::Full, 64, 8);
        assert_eq!(cache.len(), 3);
        assert!(!Arc::ptr_eq(&scaled, &fixed));
        // The fixed plan only runs at exactly its 2 GPUs; rescaling runs on
        // more.
        assert_eq!(fixed.points[4].raw_throughput, 0.0);
        assert!(scaled.points[4].raw_throughput > 0.0);
        assert_bitwise_eq(&fixed, &PlanSearch::Fixed(plan).gpu_curve(&m, 64, 8));
        assert_bitwise_eq(&scaled, &PlanSearch::DpScale(plan).gpu_curve(&m, 64, 8));
        assert_bitwise_eq(&full, &SensitivityCurve::for_gpus(&m, 64, 8));
    }

    #[test]
    fn cache_invalidation_by_model() {
        let cache = CurveCache::new();
        let a = model(ModelSpec::vit_base());
        let b = model(ModelSpec::bert_large());
        cache.gpu_curve(&a, &PlanSearch::Full, 128, 8);
        cache.gpu_curve(&a, &PlanSearch::DpScale(ExecutionPlan::dp(1)), 128, 8);
        cache.gpu_curve(&b, &PlanSearch::Full, 64, 8);
        cache.invalidate_model("vit-86m");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn parallel_precompute_populates_cache() {
        let cache = CurveCache::new();
        let models: Vec<_> = [ModelSpec::vit_base(), ModelSpec::roberta_large()]
            .into_iter()
            .map(model)
            .collect();
        cache.precompute_gpu_curves(&models, |m| m.spec.default_batch, 8);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cpu_curve_rises_for_offload_bound_model() {
        // On 1 GPU a large model must offload; more CPUs speed the optimizer.
        let m = model(ModelSpec::llama2_7b());
        let curve = SensitivityCurve::for_cpus(&m, 32, 1, 64);
        assert!(curve.value(64) > curve.value(8));
    }
}
