//! Retained naive reference implementations of the plan-search pipeline.
//!
//! These are the pre-optimization code paths, kept verbatim so the
//! allocation-free [`PlanEnumerator`](crate::plan::PlanEnumerator), the
//! [`PlanSetCache`](crate::planset::PlanSetCache)-backed
//! [`best_plan`](crate::perf::ThroughputModel::best_plan) fast path, the
//! O(1) curve envelopes and next rises, and the in-place restricted curve
//! builds cached under a DP-free key can be *proven* output-identical by
//! property tests (`crates/model/tests/plan_search_equiv.rs`) and
//! benchmarked against as
//! the cold/naive side in `crates/bench/benches/modeling.rs`.
//!
//! Nothing in the scheduler calls these outside debug-build cross-checks;
//! they are the spec, not the implementation.

use crate::curve::{CurvePoint, SensitivityCurve};
use crate::env::ClusterEnv;
use crate::memory::MemoryEstimator;
use crate::perf::ThroughputModel;
use crate::placement::Placement;
use crate::plan::{ExecutionPlan, MemoryMode, Parallelism};
use crate::resources::NodeShape;
use crate::search::PlanSearch;
use crate::spec::ModelSpec;

/// Candidate TP degrees: powers of two up to a node's width (the original
/// allocating helper).
fn tp_candidates_naive(shape: &NodeShape, gpus: u32, spec: &ModelSpec) -> Vec<u32> {
    let mut v = vec![1u32];
    let mut t = 2u32;
    while t <= shape.gpus && t <= gpus {
        if spec.hidden.is_multiple_of(t) {
            v.push(t);
        }
        t *= 2;
    }
    v
}

/// The original eager `enumerate_plans`: nested loops pushing into a `Vec`,
/// with per-candidate validate + feasibility checks against the packed
/// placement.
pub fn enumerate_plans_naive(
    spec: &ModelSpec,
    gpus: u32,
    global_batch: u32,
    shape: &NodeShape,
    env: &ClusterEnv,
) -> Vec<ExecutionPlan> {
    if gpus == 0 {
        return Vec::new();
    }
    let placement = Placement::packed(gpus, shape);
    let estimator = MemoryEstimator::new(shape.gpu_mem_gb);
    let mut plans = Vec::new();
    let mut push_if_feasible = |plan: ExecutionPlan| {
        if plan.validate(spec, global_batch).is_ok()
            && estimator
                .check_feasible(spec, &plan, &placement, global_batch, env)
                .is_ok()
        {
            plans.push(plan);
        }
    };

    for t in tp_candidates_naive(shape, gpus, spec) {
        if !gpus.is_multiple_of(t) {
            continue;
        }
        let rest = gpus / t;
        for p in 1..=rest {
            if !rest.is_multiple_of(p) || p > spec.layers {
                continue;
            }
            let d = rest / p;
            if d > global_batch {
                continue;
            }
            let base = Parallelism::new(d, t, p);
            if t == 1 && p == 1 {
                for memory in [
                    MemoryMode::Plain,
                    MemoryMode::Zero2,
                    MemoryMode::Zero3,
                    MemoryMode::ZeroOffload,
                ] {
                    if memory == MemoryMode::Zero3 && d == 1 {
                        continue; // degenerates to plain DP
                    }
                    for ga in [1u32, 2, 4, 8] {
                        if d.saturating_mul(ga) > global_batch {
                            continue;
                        }
                        for gc in [false, true] {
                            push_if_feasible(ExecutionPlan {
                                parallel: base,
                                memory,
                                ga_steps: ga,
                                micro_batches: 1,
                                gc,
                            });
                        }
                    }
                }
            } else if p == 1 {
                for ga in [1u32, 2, 4] {
                    if d.saturating_mul(ga) > global_batch {
                        continue;
                    }
                    for gc in [false, true] {
                        push_if_feasible(ExecutionPlan {
                            parallel: base,
                            memory: MemoryMode::Plain,
                            ga_steps: ga,
                            micro_batches: 1,
                            gc,
                        });
                    }
                }
            } else {
                let max_m = global_batch / d;
                let mut candidates = vec![p, 2 * p, 4 * p, max_m];
                candidates.retain(|&m| m >= 1 && m <= max_m);
                candidates.sort_unstable();
                candidates.dedup();
                for m in candidates {
                    for gc in [false, true] {
                        push_if_feasible(ExecutionPlan {
                            parallel: base,
                            memory: MemoryMode::Plain,
                            ga_steps: 1,
                            micro_batches: m,
                            gc,
                        });
                    }
                }
            }
        }
    }
    plans.dedup();
    plans
}

/// The original `best_plan`: re-enumerates every call and scores candidates
/// through the *checked* `throughput` (which re-runs validate +
/// `check_feasible` per plan).
pub fn best_plan_naive(
    model: &ThroughputModel,
    global_batch: u32,
    placement: &Placement,
) -> Option<(ExecutionPlan, f64)> {
    let gpus = placement.total_gpus();
    if gpus == 0 {
        return None;
    }
    let mut best: Option<(ExecutionPlan, f64)> = None;
    for plan in enumerate_plans_naive(&model.spec, gpus, global_batch, &model.shape, &model.env) {
        if let Ok(tput) = model.throughput(&plan, global_batch, placement) {
            if best.as_ref().map(|(_, b)| tput > *b).unwrap_or(true) {
                best = Some((plan, tput));
            }
        }
    }
    best
}

/// Computes `envelope_idx` for each point by the original O(n) walk-back
/// that [`SensitivityCurve::best_plan_at`] used to perform per query: the
/// latest point `j <= idx` whose raw throughput float-equals the envelope
/// at `idx` and that carries a plan (0 while the envelope is still 0).
fn backfill_envelope_idx(points: &mut [CurvePoint]) {
    for idx in 0..points.len() {
        let target = points[idx].envelope;
        points[idx].envelope_idx = if target <= 0.0 {
            0
        } else {
            points[..=idx]
                .iter()
                .rev()
                .find(|p| p.plan.is_some() && (p.raw_throughput - target).abs() < 1e-12)
                .map(|p| p.amount)
                .expect("positive envelope implies an achieving plan point")
        };
    }
}

/// The next useful amount above `amount` by the forward walk
/// [`SensitivityCurve::next_rise`] replaces: the first larger amount whose
/// envelope beats `value(amount) + 1e-12`.
pub fn next_rise_naive(curve: &SensitivityCurve, amount: u32) -> Option<u32> {
    let here = curve.value(amount);
    (amount + 1..=curve.max_amount()).find(|&a| curve.value(a) > here + 1e-12)
}

/// Fills every point's `next_rise` by [`next_rise_naive`], so full-struct
/// equality validates the O(1) table too.
fn backfill_next_rise(mut curve: SensitivityCurve) -> SensitivityCurve {
    let rises: Vec<Option<u32>> = (0..=curve.max_amount())
        .map(|a| next_rise_naive(&curve, a))
        .collect();
    for (point, rise) in curve.points.iter_mut().zip(rises) {
        point.next_rise = rise;
    }
    curve
}

/// The original GPU-curve construction: a fresh packed placement and a full
/// naive `best_plan` per point, with `envelope_idx` derived by the original
/// walk-back so full-struct equality validates the O(1) index too.
pub fn for_gpus_naive(
    model: &ThroughputModel,
    global_batch: u32,
    max_gpus: u32,
) -> SensitivityCurve {
    let mut points = Vec::with_capacity(max_gpus as usize + 1);
    points.push(CurvePoint {
        amount: 0,
        raw_throughput: 0.0,
        envelope: 0.0,
        plan: None,
        envelope_idx: 0,
        next_rise: None,
    });
    let mut env_best = 0.0f64;
    for g in 1..=max_gpus {
        let placement = Placement::packed(g, &model.shape);
        let best = best_plan_naive(model, global_batch, &placement);
        let raw = best.as_ref().map(|(_, t)| *t).unwrap_or(0.0);
        env_best = env_best.max(raw);
        points.push(CurvePoint {
            amount: g,
            raw_throughput: raw,
            envelope: env_best,
            plan: best.map(|(p, _)| p),
            envelope_idx: 0,
            next_rise: None,
        });
    }
    backfill_envelope_idx(&mut points);
    backfill_next_rise(SensitivityCurve { points })
}

/// The original candidate list of a restricted search mode: the rescaled
/// base or the fixed plan at its exact GPU count, collected into a `Vec`.
fn restricted_candidates_naive(
    search: &PlanSearch,
    gpus: u32,
    global_batch: u32,
) -> Vec<ExecutionPlan> {
    match search {
        PlanSearch::Full => unreachable!("full search has no restricted candidates"),
        PlanSearch::DpScale(base) => PlanSearch::rescale_dp(base, gpus, global_batch)
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

/// The original restricted (DP-rescale or fixed-plan) GPU-curve build: a
/// fresh packed placement per amount, then the checked scoring loop over
/// the collected candidates, keeping the first best.
pub fn restricted_gpu_curve_naive(
    search: &PlanSearch,
    model: &ThroughputModel,
    global_batch: u32,
    max_gpus: u32,
) -> SensitivityCurve {
    SensitivityCurve::from_fn(max_gpus, |g| {
        let placement = Placement::packed(g, &model.shape);
        let mut best: Option<(ExecutionPlan, f64)> = None;
        for plan in restricted_candidates_naive(search, placement.total_gpus(), global_batch) {
            if let Ok(tput) = model.throughput(&plan, global_batch, &placement) {
                if best.as_ref().map(|(_, b)| tput > *b).unwrap_or(true) {
                    best = Some((plan, tput));
                }
            }
        }
        best
    })
}

/// One curve point by bit pattern: amount, raw throughput and envelope
/// bits, plan, envelope index and next rise.
pub type PointBits = (u32, u64, u64, Option<ExecutionPlan>, u32, Option<u32>);

/// A curve's points by bit pattern, so `assert_eq!` on two curves is
/// bitwise equality (`f64` equality would miss a sign or NaN payload) and
/// names the first diverging point.
pub fn curve_bits(curve: &SensitivityCurve) -> Vec<PointBits> {
    curve
        .points
        .iter()
        .map(|p| {
            (
                p.amount,
                p.raw_throughput.to_bits(),
                p.envelope.to_bits(),
                p.plan,
                p.envelope_idx,
                p.next_rise,
            )
        })
        .collect()
}
