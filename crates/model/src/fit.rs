//! Model fitting (paper §4.3, "continuous model fitting").
//!
//! The seven fittable parameters of [`PerfParams`] are estimated from a
//! handful of profiled `(plan, placement, iteration-time)` samples by
//! minimizing the **root mean squared logarithmic error** (RMSLE) between
//! Eq. (1) and the observations. The paper requires at least seven data
//! points, three of which exercise ZeRO-Offload (so `k_opt_off`, `k_off`
//! and `k_swap` are identifiable).
//!
//! Optimization is a from-scratch bounded [Nelder–Mead] simplex search with
//! seeded random restarts — no external optimizer crates. Online updates
//! from live training runs use the cheaper warm-started [`refit_params`]
//! (damped Gauss–Newton), driven by the `rubick-refit` crate.
//!
//! [Nelder–Mead]: https://en.wikipedia.org/wiki/Nelder%E2%80%93Mead_method

use crate::env::ClusterEnv;
use crate::error::ModelError;
use crate::perf::{IterTerms, PerfParams};
use crate::placement::Placement;
use crate::plan::ExecutionPlan;
use crate::spec::ModelSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One profiled observation: a plan ran on a placement and achieved an
/// iteration time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataPoint {
    /// The execution plan that was measured.
    pub plan: ExecutionPlan,
    /// Where it ran.
    pub placement: Placement,
    /// Global batch size of the run.
    pub global_batch: u32,
    /// Observed seconds per iteration.
    pub iter_time: f64,
}

impl DataPoint {
    /// Creates a data point; `iter_time` must be positive and finite.
    ///
    /// # Panics
    ///
    /// Panics if `iter_time` is not a positive finite number.
    pub fn new(
        plan: ExecutionPlan,
        placement: Placement,
        global_batch: u32,
        iter_time: f64,
    ) -> Self {
        assert!(
            iter_time.is_finite() && iter_time > 0.0,
            "iter_time must be positive and finite, got {iter_time}"
        );
        DataPoint {
            plan,
            placement,
            global_batch,
            iter_time,
        }
    }
}

/// Search bounds for each of the 7 fittable parameters, in
/// [`PerfParams::to_vec`] order.
const LO: [f64; 7] = [0.5, 1.0, 1e-4, 1e-3, 1.0, 1.0, 0.0];
const HI: [f64; 7] = [5.0, 32.0, 1.0, 100.0, 32.0, 32.0, 1.0];

/// Options controlling the fit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitOptions {
    /// Number of random restarts of the simplex search.
    pub restarts: usize,
    /// Maximum Nelder–Mead iterations per restart.
    pub max_iters: usize,
    /// RNG seed for restart initialization (fits are deterministic).
    pub seed: u64,
    /// Minimum number of data points required (paper: 7).
    pub min_points: usize,
    /// Profiled sustained per-GPU FLOP/s anchoring `T_fwd` (measured by the
    /// profiler from a framework-reported forward time, not fitted).
    pub gpu_flops: f64,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            restarts: 12,
            max_iters: 600,
            seed: 0x5EED_CAFE,
            min_points: 7,
            gpu_flops: 1.2e14,
        }
    }
}

/// A completed fit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitResult {
    /// The fitted parameters.
    pub params: PerfParams,
    /// Final RMSLE on the training points.
    pub rmsle: f64,
    /// Total objective evaluations performed.
    pub evaluations: usize,
}

/// A data point in the form every fit objective evaluates: the
/// parameter-independent terms of Eq. 1 and `ln(1 + observed)`, both
/// computed once per fit rather than once per candidate.
struct Sample {
    terms: IterTerms,
    log_observed: f64,
}

/// Precomputes the [`Sample`]s of `points` under a fixed `gpu_flops`.
fn samples(
    spec: &ModelSpec,
    env: &ClusterEnv,
    gpu_flops: f64,
    points: &[DataPoint],
) -> Vec<Sample> {
    let anchor = PerfParams {
        gpu_flops,
        ..PerfParams::default()
    };
    points
        .iter()
        .map(|p| Sample {
            terms: anchor.iter_terms(spec, &p.plan, p.global_batch, &p.placement, env),
            log_observed: (1.0 + p.iter_time).ln(),
        })
        .collect()
}

/// Log-error of `params` on one sample: `ln(1 + predicted) − ln(1 + observed)`.
fn log_error(params: &PerfParams, s: &Sample) -> f64 {
    (1.0 + params.iter_time_from(&s.terms)).ln() - s.log_observed
}

/// RMSLE between predicted and observed iteration times.
fn rmsle(params: &PerfParams, samples: &[Sample]) -> f64 {
    let mut acc = 0.0;
    for s in samples {
        let d = log_error(params, s);
        acc += d * d;
    }
    (acc / samples.len() as f64).sqrt()
}

/// Projects a candidate vector into the parameter box.
fn project(x: &mut [f64; 7]) {
    for i in 0..7 {
        x[i] = x[i].clamp(LO[i], HI[i]);
    }
}

/// Bounded Nelder–Mead simplex minimization of `f` starting from `x0`.
///
/// Returns `(best_x, best_f, evaluations)`. Standard coefficients
/// (reflection 1, expansion 2, contraction ½, shrink ½) with box projection
/// applied to every trial point.
fn nelder_mead<F: FnMut(&[f64; 7]) -> f64>(
    mut f: F,
    x0: [f64; 7],
    max_iters: usize,
) -> ([f64; 7], f64, usize) {
    const N: usize = 7;
    let mut evals = 0usize;
    let mut eval = |x: &[f64; 7], evals: &mut usize| {
        *evals += 1;
        f(x)
    };

    // Initial simplex: x0 plus per-coordinate steps of 10% of the box.
    let mut simplex: Vec<([f64; 7], f64)> = Vec::with_capacity(N + 1);
    let mut first = x0;
    project(&mut first);
    let fv = eval(&first, &mut evals);
    simplex.push((first, fv));
    for i in 0..N {
        let mut xi = first;
        let step = 0.1 * (HI[i] - LO[i]);
        xi[i] = if xi[i] + step <= HI[i] {
            xi[i] + step
        } else {
            xi[i] - step
        };
        project(&mut xi);
        let fv = eval(&xi, &mut evals);
        simplex.push((xi, fv));
    }

    for _ in 0..max_iters {
        simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let best = simplex[0].1;
        let worst = simplex[N].1;
        if (worst - best).abs() < 1e-12 {
            break;
        }
        // Centroid of all but the worst.
        let mut centroid = [0.0f64; 7];
        for (x, _) in simplex.iter().take(N) {
            for i in 0..N {
                centroid[i] += x[i] / N as f64;
            }
        }
        let worst_x = simplex[N].0;
        let make = |coef: f64| {
            let mut x = [0.0f64; 7];
            for i in 0..N {
                x[i] = centroid[i] + coef * (centroid[i] - worst_x[i]);
            }
            project(&mut x);
            x
        };
        let xr = make(1.0);
        let fr = eval(&xr, &mut evals);
        if fr < simplex[0].1 {
            let xe = make(2.0);
            let fe = eval(&xe, &mut evals);
            simplex[N] = if fe < fr { (xe, fe) } else { (xr, fr) };
        } else if fr < simplex[N - 1].1 {
            simplex[N] = (xr, fr);
        } else {
            let xc = make(-0.5);
            let fc = eval(&xc, &mut evals);
            if fc < simplex[N].1 {
                simplex[N] = (xc, fc);
            } else {
                // Shrink towards the best vertex.
                let x_best = simplex[0].0;
                for v in simplex.iter_mut().skip(1) {
                    for (vi, &xb) in v.0.iter_mut().zip(x_best.iter()) {
                        *vi = xb + 0.5 * (*vi - xb);
                    }
                    project(&mut v.0);
                    v.1 = eval(&v.0, &mut evals);
                }
            }
        }
    }
    simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    (simplex[0].0, simplex[0].1, evals)
}

/// Fits the seven performance-model parameters to profiled data points.
///
/// # Errors
///
/// Returns [`ModelError::FitFailed`] if fewer than `opts.min_points` points
/// are supplied or every restart diverged.
///
/// ```
/// use rubick_model::prelude::*;
/// use rubick_model::fit::{fit_perf_params, DataPoint, FitOptions};
///
/// # fn main() -> Result<(), ModelError> {
/// let spec = ModelSpec::roberta_large();
/// let env = ClusterEnv::a800();
/// // Generate synthetic observations from known parameters...
/// let truth = PerfParams::default();
/// let mut points = Vec::new();
/// for (plan, gpus) in [
///     (ExecutionPlan::dp(1), 1u32),
///     (ExecutionPlan::dp(2), 2),
///     (ExecutionPlan::dp(4), 4),
///     (ExecutionPlan::zero_dp(8), 8),
///     (ExecutionPlan::zero_offload(1), 1),
///     (ExecutionPlan::zero_offload(2), 2),
///     (ExecutionPlan::zero_offload(4), 4),
/// ] {
///     let placement = Placement::packed(gpus, &NodeShape::a800());
///     let t = truth.iter_time(&spec, &plan, 64, &placement, &env);
///     points.push(DataPoint::new(plan, placement, 64, t));
/// }
/// let fit = fit_perf_params(&spec, &env, &points, &FitOptions::default())?;
/// assert!(fit.rmsle < 0.05, "should recover the generating model");
/// # Ok(())
/// # }
/// ```
pub fn fit_perf_params(
    spec: &ModelSpec,
    env: &ClusterEnv,
    points: &[DataPoint],
    opts: &FitOptions,
) -> Result<FitResult, ModelError> {
    if points.len() < opts.min_points {
        return Err(ModelError::FitFailed {
            reason: format!(
                "need at least {} data points, got {}",
                opts.min_points,
                points.len()
            ),
        });
    }
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let samples = samples(spec, env, opts.gpu_flops, points);
    let objective = |v: &[f64; 7]| {
        let params = PerfParams::from_vec(v, opts.gpu_flops);
        rmsle(&params, &samples)
    };

    let mut best: Option<([f64; 7], f64)> = None;
    let mut total_evals = 0usize;
    for restart in 0..opts.restarts.max(1) {
        let x0 = if restart == 0 {
            PerfParams {
                gpu_flops: opts.gpu_flops,
                ..PerfParams::default()
            }
            .to_vec()
        } else {
            let mut x = [0.0f64; 7];
            for i in 0..7 {
                // Log-uniform for the scale parameters, uniform otherwise.
                x[i] = if i == 2 || i == 3 {
                    (LO[i].ln() + rng.random::<f64>() * (HI[i].ln() - LO[i].ln())).exp()
                } else {
                    LO[i] + rng.random::<f64>() * (HI[i] - LO[i])
                };
            }
            x
        };
        let (x, fv, evals) = nelder_mead(objective, x0, opts.max_iters);
        total_evals += evals;
        if fv.is_finite() && best.as_ref().map(|(_, b)| fv < *b).unwrap_or(true) {
            best = Some((x, fv));
        }
    }
    let (x, fv) = best.ok_or_else(|| ModelError::FitFailed {
        reason: "all restarts diverged".into(),
    })?;
    Ok(FitResult {
        params: PerfParams::from_vec(&x, opts.gpu_flops),
        rmsle: fv,
        evaluations: total_evals,
    })
}

/// Solves the 7×7 linear system `a · x = b` by Gaussian elimination with
/// partial pivoting. Returns `None` when the system is numerically
/// singular (pivot below 1e-30).
// Index loops mirror the textbook elimination; the suggested iterator
// form cannot express the two-row access `a[row][k] -= f * a[col][k]`.
#[allow(clippy::needless_range_loop)]
fn solve7(mut a: [[f64; 7]; 7], mut b: [f64; 7]) -> Option<[f64; 7]> {
    const N: usize = 7;
    for col in 0..N {
        let mut pivot = col;
        for row in col + 1..N {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        if a[pivot][col].abs() < 1e-30 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..N {
            let factor = a[row][col] / a[col][col];
            for k in col..N {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = [0.0f64; 7];
    for col in (0..N).rev() {
        let mut acc = b[col];
        for k in col + 1..N {
            acc -= a[col][k] * x[k];
        }
        x[col] = acc / a[col][col];
    }
    Some(x)
}

/// One deterministic damped Gauss–Newton (Levenberg–Marquardt) update of
/// the seven fittable parameters against `points`, seeded from `params`.
///
/// This is the *incremental* counterpart of [`fit_perf_params`]: instead
/// of a multi-restart simplex search from scratch (milliseconds), it takes
/// a single curvature step from the current model (microseconds), which is
/// what an online refitter wants per observation batch. The residuals are
/// the same log-errors the batch fit minimizes, so both descend the same
/// RMSLE objective.
///
/// The step is accept-if-improves: the damping ladder is walked from
/// near-Gauss-Newton towards steepest descent and the first candidate that
/// lowers the RMSLE is taken (after projection into the parameter box).
/// When no damping level improves — already at a local minimum, or the
/// Jacobian is degenerate — the input parameters are returned unchanged.
/// Pure `f64` arithmetic in a fixed evaluation order: identical inputs
/// produce bit-identical outputs on every call.
///
/// Returns the (possibly unchanged) parameters and their RMSLE on
/// `points`. `points` must be non-empty.
pub fn refit_step(
    spec: &ModelSpec,
    env: &ClusterEnv,
    params: &PerfParams,
    points: &[DataPoint],
) -> (PerfParams, f64) {
    assert!(!points.is_empty(), "refit_step needs at least one point");
    step(params, &samples(spec, env, params.gpu_flops, points))
}

/// [`refit_step`] over precomputed samples (taken under
/// `params.gpu_flops`).
fn step(params: &PerfParams, samples: &[Sample]) -> (PerfParams, f64) {
    let gpu_flops = params.gpu_flops;
    let mut x = params.to_vec();
    project(&mut x);
    let residuals = |v: &[f64; 7], out: &mut Vec<f64>| {
        let p = PerfParams::from_vec(v, gpu_flops);
        out.clear();
        out.extend(samples.iter().map(|s| log_error(&p, s)));
    };
    let cost = |r: &[f64]| (r.iter().map(|d| d * d).sum::<f64>() / r.len() as f64).sqrt();
    let mut r0 = Vec::with_capacity(samples.len());
    residuals(&x, &mut r0);
    let f0 = cost(&r0);
    if !f0.is_finite() {
        return (PerfParams::from_vec(&x, gpu_flops), f0);
    }

    // Finite-difference Jacobian, column per parameter. Steps are a fixed
    // fraction of the box so conditioning does not depend on the current
    // value; a backward difference is used at the upper bound so clamping
    // never zeroes a column.
    let m = samples.len();
    let mut jac: Vec<[f64; 7]> = vec![[0.0; 7]; m];
    let mut rp = Vec::with_capacity(m);
    for j in 0..7 {
        let h = 1e-5 * (HI[j] - LO[j]);
        let (mut xp, sign) = if x[j] + h <= HI[j] {
            let mut xp = x;
            xp[j] += h;
            (xp, 1.0)
        } else {
            let mut xp = x;
            xp[j] -= h;
            (xp, -1.0)
        };
        project(&mut xp);
        residuals(&xp, &mut rp);
        for (row, jr) in jac.iter_mut().enumerate() {
            jr[j] = sign * (rp[row] - r0[row]) / h;
        }
    }

    // Normal equations: a = JᵀJ, g = Jᵀr.
    let mut a = [[0.0f64; 7]; 7];
    let mut g = [0.0f64; 7];
    for row in 0..m {
        for i in 0..7 {
            g[i] += jac[row][i] * r0[row];
            for k in 0..7 {
                a[i][k] += jac[row][i] * jac[row][k];
            }
        }
    }

    // Damping ladder: near-Gauss-Newton first, steepest-descent-like last;
    // accept the first candidate that improves the objective.
    for lambda in [1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0] {
        let mut damped = a;
        for i in 0..7 {
            damped[i][i] += lambda * a[i][i].max(1e-12);
        }
        let Some(delta) = solve7(damped, g) else {
            continue;
        };
        let mut cand = x;
        for i in 0..7 {
            cand[i] -= delta[i];
        }
        project(&mut cand);
        residuals(&cand, &mut rp);
        let fc = cost(&rp);
        if fc.is_finite() && fc < f0 {
            return (PerfParams::from_vec(&cand, gpu_flops), fc);
        }
    }
    (PerfParams::from_vec(&x, gpu_flops), f0)
}

/// Iterated [`refit_step`]: up to `max_steps` damped Gauss–Newton updates,
/// stopping early when a step fails to improve the RMSLE by more than
/// 1e-9. Returns the refined parameters and their final RMSLE.
pub fn refit_params(
    spec: &ModelSpec,
    env: &ClusterEnv,
    params: &PerfParams,
    points: &[DataPoint],
    max_steps: usize,
) -> (PerfParams, f64) {
    assert!(!points.is_empty(), "refit_params needs at least one point");
    let samples = samples(spec, env, params.gpu_flops, points);
    let mut current = *params;
    let mut best = f64::INFINITY;
    for _ in 0..max_steps.max(1) {
        let (next, err) = step(&current, &samples);
        // `improved` is false for NaN too, ending the loop.
        let improved = err + 1e-9 < best;
        if !improved {
            return (next, err);
        }
        best = err;
        current = next;
    }
    (current, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::NodeShape;

    /// Synthetic observations from known ground-truth parameters.
    fn synthetic_points(spec: &ModelSpec, truth: &PerfParams, env: &ClusterEnv) -> Vec<DataPoint> {
        let shape = NodeShape::a800();
        let configs: Vec<(ExecutionPlan, u32)> = vec![
            (ExecutionPlan::dp(1), 1),
            (ExecutionPlan::dp(4), 4),
            (ExecutionPlan::dp(8).with_ga(2), 8),
            (ExecutionPlan::zero_dp(8), 8),
            (ExecutionPlan::zero_offload(1), 1),
            (ExecutionPlan::zero_offload(2), 2),
            (ExecutionPlan::zero_offload(4).with_gc(), 4),
        ];
        configs
            .into_iter()
            .map(|(plan, g)| {
                let placement = Placement::packed(g, &shape);
                let t = truth.iter_time(spec, &plan, 64, &placement, env);
                DataPoint::new(plan, placement, 64, t)
            })
            .collect()
    }

    #[test]
    fn fit_recovers_generating_model() {
        let spec = ModelSpec::roberta_large();
        let env = ClusterEnv::a800();
        let truth = PerfParams {
            k_bwd: 2.3,
            k_sync: 3.0,
            k_opt: 0.05,
            k_opt_off: 2.0,
            k_off: 1.8,
            k_swap: 2.5,
            k_const: 0.02,
            gpu_flops: 1.2e14,
        };
        let points = synthetic_points(&spec, &truth, &env);
        let fit = fit_perf_params(&spec, &env, &points, &FitOptions::default()).unwrap();
        assert!(fit.rmsle < 0.02, "rmsle too high: {}", fit.rmsle);
        // Predictions on an unseen configuration should be close.
        let plan = ExecutionPlan::zero_dp(4);
        let placement = Placement::packed(4, &NodeShape::a800());
        let pred = fit.params.iter_time(&spec, &plan, 64, &placement, &env);
        let actual = truth.iter_time(&spec, &plan, 64, &placement, &env);
        let rel = (pred - actual).abs() / actual;
        assert!(rel < 0.15, "unseen prediction off by {rel}");
    }

    #[test]
    fn fit_requires_min_points() {
        let spec = ModelSpec::roberta_large();
        let env = ClusterEnv::a800();
        let truth = PerfParams::default();
        let mut points = synthetic_points(&spec, &truth, &env);
        points.truncate(5);
        let err = fit_perf_params(&spec, &env, &points, &FitOptions::default());
        assert!(matches!(err, Err(ModelError::FitFailed { .. })));
    }

    #[test]
    fn fit_is_deterministic_for_fixed_seed() {
        let spec = ModelSpec::bert_large();
        let env = ClusterEnv::a800();
        let truth = PerfParams::default();
        let points = synthetic_points(&spec, &truth, &env);
        let a = fit_perf_params(&spec, &env, &points, &FitOptions::default()).unwrap();
        let b = fit_perf_params(&spec, &env, &points, &FitOptions::default()).unwrap();
        assert_eq!(a.params, b.params);
    }

    #[test]
    fn refit_step_improves_perturbed_params() {
        let spec = ModelSpec::roberta_large();
        let env = ClusterEnv::a800();
        let truth = PerfParams::default();
        let points = synthetic_points(&spec, &truth, &env);
        // Perturb the true parameters: the step must descend towards them.
        let start = PerfParams {
            k_bwd: truth.k_bwd * 1.5,
            k_sync: truth.k_sync * 0.6,
            ..truth
        };
        let before = rmsle(&start, &samples(&spec, &env, start.gpu_flops, &points));
        let (stepped, after) = refit_step(&spec, &env, &start, &points);
        assert!(after < before, "one step must improve: {after} vs {before}");
        let (_, converged) = refit_params(&spec, &env, &stepped, &points, 16);
        assert!(
            converged < 0.5 * before,
            "iterated steps must sharply reduce the error: {converged} vs {before}"
        );
    }

    #[test]
    fn refit_step_is_deterministic_and_bounded() {
        let spec = ModelSpec::bert_large();
        let env = ClusterEnv::a800();
        let truth = PerfParams::default();
        let points = synthetic_points(&spec, &truth, &env);
        let start = PerfParams {
            k_opt: truth.k_opt * 3.0,
            ..truth
        };
        let (a, fa) = refit_step(&spec, &env, &start, &points);
        let (b, fb) = refit_step(&spec, &env, &start, &points);
        assert_eq!(a, b, "identical inputs must produce identical params");
        assert_eq!(fa.to_bits(), fb.to_bits());
        let v = a.to_vec();
        for (i, x) in v.iter().enumerate() {
            assert!(
                (super::LO[i]..=super::HI[i]).contains(x),
                "param {i} escaped the box: {x}"
            );
        }
    }

    #[test]
    fn refit_step_at_optimum_is_a_fixed_point() {
        let spec = ModelSpec::roberta_large();
        let env = ClusterEnv::a800();
        let truth = PerfParams::default();
        let points = synthetic_points(&spec, &truth, &env);
        // Noise-free observations from the truth: the error is already ~0
        // and no damping level can improve, so the params pass through.
        let (out, err) = refit_step(&spec, &env, &truth, &points);
        assert!(err < 1e-9, "truth fits its own observations: {err}");
        assert_eq!(out, truth);
    }

    #[test]
    fn datapoint_rejects_nonpositive_time() {
        let plan = ExecutionPlan::dp(1);
        let placement = Placement::single_node(1, 8, 100.0);
        let res = std::panic::catch_unwind(|| DataPoint::new(plan, placement, 16, 0.0));
        assert!(res.is_err());
    }
}
