//! Model fitting (paper §4.3, "continuous model fitting").
//!
//! The seven fittable parameters of [`PerfParams`] are estimated from a
//! handful of profiled `(plan, placement, iteration-time)` samples by
//! minimizing the **root mean squared logarithmic error** (RMSLE) between
//! Eq. (1) and the observations. The paper requires at least seven data
//! points, three of which exercise ZeRO-Offload (so `k_opt_off`, `k_off`
//! and `k_swap` are identifiable).
//!
//! Optimization is one from-scratch bounded damped Gauss–Newton
//! (Levenberg–Marquardt) descent over a finite-difference Jacobian — no
//! external optimizer crates. The profile fit [`fit_perf_params`] runs it
//! from 4 seeded starts and keeps the best; online updates from live
//! training runs ([`refit_params`], driven by the `rubick-refit` crate) run
//! it once, warm-started from the current parameters.
//!
//! The box bounds enter each step through an active set. When the descent
//! has at least one sample per parameter, a parameter on a bound whose
//! gradient step would leave the box is held there, and the others solve
//! the damped system without it. Clamping after a full solve instead lets
//! the bound parameter steer the free ones, and the damping ladder falls
//! back to short steps. An underdetermined refit window keeps the plain
//! projected step, since its reduced system has a null space.

use crate::env::ClusterEnv;
use crate::error::ModelError;
use crate::perf::{IterTerms, PerfParams};
use crate::placement::Placement;
use crate::plan::{ExecutionPlan, MemoryMode};
use crate::spec::ModelSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One profiled observation: a plan ran on a placement and achieved an
/// iteration time.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitOptions {
    /// Number of descent starts: the first at [`PerfParams::default`], the
    /// rest drawn at random inside the parameter box. The default is 4:
    /// over the zoo's profiles, the best of the first 3 lies within 1% of
    /// the best of 12.
    pub restarts: usize,
    /// Maximum accepted damped Gauss–Newton steps per start (the same
    /// budget an online refit takes).
    pub max_steps: usize,
    /// RNG seed for the random starts (fits are deterministic).
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
            restarts: 4,
            max_steps: 12,
            seed: 0x5EED_CAFE,
            min_points: 7,
            gpu_flops: 1.2e14,
        }
    }
}

/// A completed fit.
#[derive(Debug, Clone, PartialEq)]
pub struct FitResult {
    /// The fitted parameters.
    pub params: PerfParams,
    /// Final RMSLE on the training points.
    pub rmsle: f64,
}

/// A data point in the form every fit objective evaluates: the
/// parameter-independent terms of Eq. 1, the fitted parameters they read
/// and `ln(1 + observed)`, all computed once per fit rather than once per
/// candidate.
struct Sample {
    terms: IterTerms,
    /// [`IterTerms::read_mask`] of `terms`.
    reads: u8,
    /// The plan runs ZeRO-Offload, so `T_oo` is
    /// [`PerfParams::t_sync_off`]` + `[`PerfParams::t_opt_swap`].
    offload: bool,
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
        .map(|p| {
            let terms = anchor.iter_terms(spec, &p.plan, p.global_batch, &p.placement, env);
            Sample {
                terms,
                reads: terms.read_mask(),
                offload: p.plan.memory == MemoryMode::ZeroOffload,
                log_observed: (1.0 + p.iter_time).ln(),
            }
        })
        .collect()
}

/// A sample's Eq. 1 parts at one parameter vector: `(T_cc, T_oo)` and,
/// on a ZeRO-Offload sample, the two summands of `T_oo` (zero elsewhere).
#[derive(Clone, Copy)]
struct Parts {
    t_cc: f64,
    t_oo: f64,
    sync_off: f64,
    opt_swap: f64,
}

impl Parts {
    /// The parts of `s` under `p`, each summand evaluated once.
    #[inline(always)]
    fn of(p: &PerfParams, s: &Sample) -> Parts {
        let t_cc = p.t_cc(&s.terms);
        if s.offload {
            let (sync_off, opt_swap) = (p.t_sync_off(&s.terms), p.t_opt_swap(&s.terms));
            Parts {
                t_cc,
                t_oo: sync_off + opt_swap,
                sync_off,
                opt_swap,
            }
        } else {
            Parts {
                t_cc,
                t_oo: p.t_oo(&s.terms),
                sync_off: 0.0,
                opt_swap: 0.0,
            }
        }
    }
}

/// The log-error `ln(1 + predicted) − ln(1 + observed)` of `s` from its
/// Eq. 1 halves `T_cc` and `T_oo`: the sum is
/// [`PerfParams::iter_time_from`]'s, in its order.
#[inline(always)]
fn log_error(s: &Sample, t_cc: f64, t_oo: f64, k_const: f64) -> f64 {
    (1.0 + (t_cc + t_oo + k_const)).ln() - s.log_observed
}

/// Log-errors of the parameter vector `x` on every sample, written into
/// `out`, and each sample's Eq. 1 [`Parts`], written into `parts`.
///
/// With `below = Some(f)` — a damping-ladder candidate, which is accepted
/// only below the RMSLE `f` — the pass gives up and returns `false` as
/// soon as `sqrt(partial/m) >= f` over the partial sum of squares. The
/// reject is exact: squares are non-negative and rounding is monotone, so
/// the partial sums never decrease and the full RMSLE cannot fall below
/// `f` again. A NaN never rejects here; the caller's finiteness test does.
/// Returns `true` when every sample was evaluated.
fn residuals(
    samples: &[Sample],
    x: &[f64; 7],
    gpu_flops: f64,
    below: Option<f64>,
    out: &mut Vec<f64>,
    parts: &mut Vec<Parts>,
) -> bool {
    let p = PerfParams::from_vec(x, gpu_flops);
    let m = samples.len() as f64;
    let mut partial = 0.0;
    out.clear();
    parts.clear();
    for s in samples {
        let at = Parts::of(&p, s);
        debug_assert_eq!(at.t_oo.to_bits(), p.t_oo(&s.terms).to_bits());
        let d = log_error(s, at.t_cc, at.t_oo, p.k_const);
        out.push(d);
        parts.push(at);
        if let Some(f) = below {
            partial += d * d;
            if (partial / m).sqrt() >= f {
                return false;
            }
        }
    }
    true
}

/// RMSLE of a residual vector.
fn cost(r: &[f64]) -> f64 {
    (r.iter().map(|d| d * d).sum::<f64>() / r.len() as f64).sqrt()
}

/// Projects a candidate vector into the parameter box.
fn project(x: &mut [f64; 7]) {
    for i in 0..7 {
        x[i] = x[i].clamp(LO[i], HI[i]);
    }
}

/// Fits the seven performance-model parameters to profiled data points.
///
/// A multi-start damped Gauss–Newton descent: each of `opts.restarts`
/// starts — [`PerfParams::default`] first, then seeded log-uniform draws
/// for the scale parameters `k_opt`/`k_opt_off` and uniform draws for the
/// rest — descends for up to `opts.max_steps` accepted steps under the
/// same stop rule as [`refit_params`], and the start reaching the lowest
/// finite RMSLE wins (the earliest on a tie).
///
/// # Errors
///
/// Returns [`ModelError::FitFailed`] if fewer than `opts.min_points` points
/// are supplied or every start diverged.
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
    let mut best: Option<([f64; 7], f64)> = None;
    for restart in 0..opts.restarts.max(1) {
        let x0 = if restart == 0 {
            PerfParams::default().to_vec()
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
        let (x, fv) = descend(x0, opts.gpu_flops, &samples, opts.max_steps);
        if fv.is_finite() && best.as_ref().map(|(_, b)| fv < *b).unwrap_or(true) {
            best = Some((x, fv));
        }
    }
    let (x, fv) = best.ok_or_else(|| ModelError::FitFailed {
        reason: "all starts diverged".into(),
    })?;
    Ok(FitResult {
        params: PerfParams::from_vec(&x, opts.gpu_flops),
        rmsle: fv,
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

/// Buffers of one descent, allocated once and reused by every step.
struct Scratch {
    /// Residuals at the current point and their samples' Eq. 1 parts.
    r: Vec<f64>,
    parts: Vec<Parts>,
    /// The same for the damping-ladder candidate being tried.
    rp: Vec<f64>,
    parts_p: Vec<Parts>,
    /// Finite-difference Jacobian, one row per sample.
    jac: Vec<[f64; 7]>,
}

/// The parameters of `x` that [`step`] holds on their bound: those on
/// `LO` whose gradient component `g` is positive, or on `HI` with a
/// negative one, so that a gradient step would leave the box. Nothing is
/// held when `samples` is below the seven fitted parameters: the reduced
/// system of such a window has a null space, which the descent would walk
/// along instead of staying near its warm start.
fn active_set(x: &[f64; 7], g: &[f64; 7], samples: usize) -> [bool; 7] {
    if samples < x.len() {
        return [false; 7];
    }
    std::array::from_fn(|i| (x[i] <= LO[i] && g[i] > 0.0) || (x[i] >= HI[i] && g[i] < 0.0))
}

/// One damped Gauss–Newton (Levenberg–Marquardt) step from `x`, whose
/// residuals (with their Eq. 1 parts) in `sc` and RMSLE `f` are passed
/// in rather than recomputed.
///
/// Parameters in the [`active_set`] are held on their bound; the others
/// solve the damped system without them. The damping ladder is walked from
/// near-Gauss-Newton towards steepest descent and the first candidate
/// (projected into the box) that lowers the RMSLE replaces `(x, sc.r, f)`;
/// returns whether one did.
fn step(
    samples: &[Sample],
    gpu_flops: f64,
    x: &mut [f64; 7],
    f: &mut f64,
    sc: &mut Scratch,
) -> bool {
    if !f.is_finite() {
        return false;
    }
    // Finite-difference Jacobian, column per parameter. Steps are a fixed
    // fraction of the box so conditioning does not depend on the current
    // value; a backward difference is used at the upper bound so clamping
    // never zeroes a column. Column `j` re-evaluates only the Eq. 1 term
    // that reads parameter `j` — `T_cc` for `k_bwd`/`k_sync`, `T_oo` for
    // `k_opt`, and on an offload sample only `t_sync_off` for `k_off` or
    // `t_opt_swap` for `k_opt_off`/`k_swap` (`k_const` reads none) — and
    // nothing on a sample whose read mask excludes `j`: the perturbed
    // residual is then the current one, bit for bit. So is it when the
    // re-evaluated `(T_cc, T_oo)` equals the current pair bitwise (as when
    // `f_overlap` returns its larger operand at both exponents), since
    // `k_const` only moves in column 6. Debug builds evaluate every entry
    // in full and check the bits.
    let m = samples.len();
    let (r, parts, jac) = (&sc.r, &sc.parts, &mut sc.jac);
    for j in 0..7 {
        let h = 1e-5 * (HI[j] - LO[j]);
        let mut xp = *x;
        let sign = if x[j] + h <= HI[j] {
            xp[j] += h;
            1.0
        } else {
            xp[j] -= h;
            -1.0
        };
        project(&mut xp);
        let p = PerfParams::from_vec(&xp, gpu_flops);
        let bit = 1u8 << j;
        for (row, s) in samples.iter().enumerate() {
            let at = parts[row];
            let rp = if s.reads & bit == 0 {
                r[row]
            } else if j == 6 {
                log_error(s, at.t_cc, at.t_oo, p.k_const)
            } else {
                // Columns 3–5 are in the read mask of offload samples only.
                let (t_cc, t_oo) = match j {
                    0 | 1 => (p.t_cc(&s.terms), at.t_oo),
                    2 => (at.t_cc, p.t_oo(&s.terms)),
                    4 => (at.t_cc, p.t_sync_off(&s.terms) + at.opt_swap),
                    _ => (at.t_cc, at.sync_off + p.t_opt_swap(&s.terms)),
                };
                if t_cc.to_bits() == at.t_cc.to_bits() && t_oo.to_bits() == at.t_oo.to_bits() {
                    r[row]
                } else {
                    log_error(s, t_cc, t_oo, p.k_const)
                }
            };
            jac[row][j] = sign * (rp - r[row]) / h;
            #[cfg(debug_assertions)]
            {
                let full = (1.0 + p.iter_time_from(&s.terms)).ln() - s.log_observed;
                assert_eq!(
                    (sign * (full - r[row]) / h).to_bits(),
                    jac[row][j].to_bits(),
                    "read-set Jacobian entry ({row}, {j}) diverges"
                );
            }
        }
    }

    // Normal equations: a = JᵀJ, g = Jᵀr.
    let mut a = [[0.0f64; 7]; 7];
    let mut g = [0.0f64; 7];
    for row in 0..m {
        for i in 0..7 {
            g[i] += jac[row][i] * r[row];
            for k in 0..7 {
                a[i][k] += jac[row][i] * jac[row][k];
            }
        }
    }

    // A held parameter's row and column become a unit diagonal with a zero
    // right-hand side, so its `delta` is exactly 0 at every damping level
    // and the free parameters solve the reduced system.
    let held = active_set(x, &g, m);
    for i in (0..7).filter(|&i| held[i]) {
        a[i] = [0.0; 7];
        for row in &mut a {
            row[i] = 0.0;
        }
        a[i][i] = 1.0;
        g[i] = 0.0;
    }

    for lambda in [1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0] {
        let mut damped = a;
        for i in 0..7 {
            damped[i][i] += lambda * a[i][i].max(1e-12);
        }
        let Some(delta) = solve7(damped, g) else {
            continue;
        };
        let mut cand = *x;
        for i in 0..7 {
            cand[i] -= delta[i];
        }
        project(&mut cand);
        #[cfg(debug_assertions)]
        for i in 0..7 {
            assert!(
                (LO[i]..=HI[i]).contains(&cand[i]),
                "candidate parameter {i} = {} escaped the box",
                cand[i]
            );
            assert!(
                !held[i] || cand[i].to_bits() == x[i].to_bits(),
                "held parameter {i} moved from {} to {}",
                x[i],
                cand[i]
            );
        }
        // An early reject is exact (see `residuals`); debug builds
        // evaluate the candidate in full and check it.
        if !residuals(
            samples,
            &cand,
            gpu_flops,
            Some(*f),
            &mut sc.rp,
            &mut sc.parts_p,
        ) {
            #[cfg(debug_assertions)]
            {
                let mut full = Vec::new();
                residuals(samples, &cand, gpu_flops, None, &mut full, &mut Vec::new());
                let fc = cost(&full);
                assert!(
                    fc >= *f || fc.is_nan(),
                    "early-rejected candidate {fc} beats {f}"
                );
            }
            continue;
        }
        let fc = cost(&sc.rp);
        if fc.is_finite() && fc < *f {
            *x = cand;
            *f = fc;
            std::mem::swap(&mut sc.r, &mut sc.rp);
            std::mem::swap(&mut sc.parts, &mut sc.parts_p);
            return true;
        }
    }
    false
}

/// The one descent loop of every fit: damped Gauss–Newton steps from `x0`
/// (projected into the box), stopping after `max_steps` accepted steps
/// (at least one), or as soon as a step fails to improve the RMSLE by more
/// than 1e-9 (the result of that step is still returned). Returns the
/// final vector and its RMSLE.
fn descend(x0: [f64; 7], gpu_flops: f64, samples: &[Sample], max_steps: usize) -> ([f64; 7], f64) {
    let mut x = x0;
    project(&mut x);
    let m = samples.len();
    let mut sc = Scratch {
        r: Vec::with_capacity(m),
        parts: Vec::with_capacity(m),
        rp: Vec::with_capacity(m),
        parts_p: Vec::with_capacity(m),
        jac: vec![[0.0; 7]; m],
    };
    residuals(samples, &x, gpu_flops, None, &mut sc.r, &mut sc.parts);
    let mut f = cost(&sc.r);
    let mut best = f64::INFINITY;
    for _ in 0..max_steps.max(1) {
        let moved = step(samples, gpu_flops, &mut x, &mut f, &mut sc);
        // `improved` is false for NaN too, ending the loop. A step that
        // did not move would repeat itself exactly, so it ends the loop as
        // well.
        let improved = f + 1e-9 < best;
        if !moved || !improved {
            break;
        }
        best = f;
    }
    (x, f)
}

/// One deterministic damped Gauss–Newton (Levenberg–Marquardt) update of
/// the seven fittable parameters against `points`, seeded from `params`.
///
/// This is a single step of the descent [`fit_perf_params`] runs from
/// each of its starts and [`refit_params`] iterates: the residuals are the
/// log-errors whose root mean square is the fitted RMSLE.
///
/// The step is accept-if-improves: the damping ladder is walked from
/// near-Gauss-Newton towards steepest descent and the first candidate that
/// lowers the RMSLE is taken (after projection into the parameter box).
/// When no damping level improves — already at a local minimum, or the
/// Jacobian is degenerate — the input parameters are returned unchanged
/// (projected into the box). Pure `f64` arithmetic in a fixed evaluation
/// order: identical inputs produce bit-identical outputs on every call.
///
/// Returns the (possibly unchanged) parameters and their RMSLE on
/// `points`. `points` must be non-empty.
pub fn refit_step(
    spec: &ModelSpec,
    env: &ClusterEnv,
    params: &PerfParams,
    points: &[DataPoint],
) -> (PerfParams, f64) {
    refit_params(spec, env, params, points, 1)
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
    assert!(!points.is_empty(), "refit needs at least one point");
    let samples = samples(spec, env, params.gpu_flops, points);
    let (x, f) = descend(params.to_vec(), params.gpu_flops, &samples, max_steps);
    (PerfParams::from_vec(&x, params.gpu_flops), f)
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
        let mut r = Vec::new();
        let samples = samples(&spec, &env, start.gpu_flops, &points);
        residuals(
            &samples,
            &start.to_vec(),
            start.gpu_flops,
            None,
            &mut r,
            &mut Vec::new(),
        );
        let before = cost(&r);
        let (stepped, after) = refit_step(&spec, &env, &start, &points);
        assert!(after < before, "one step must improve: {after} vs {before}");
        let (_, converged) = refit_params(&spec, &env, &stepped, &points, 16);
        assert!(
            converged < 0.5 * before,
            "iterated steps must sharply reduce the error: {converged} vs {before}"
        );
    }

    #[test]
    fn refit_params_matches_iterated_refit_step_bitwise() {
        // The shared descent loop reuses each accepted candidate's
        // residuals; iterating the public single step recomputes them. The
        // two must agree bit for bit under the stop rule of `refit_params`.
        fn iterate(
            spec: &ModelSpec,
            env: &ClusterEnv,
            params: &PerfParams,
            points: &[DataPoint],
            max_steps: usize,
        ) -> (PerfParams, f64) {
            let mut current = *params;
            let mut best = f64::INFINITY;
            for _ in 0..max_steps.max(1) {
                let (next, err) = refit_step(spec, env, &current, points);
                let improved = err + 1e-9 < best;
                if !improved {
                    return (next, err);
                }
                best = err;
                current = next;
            }
            (current, best)
        }
        let env = ClusterEnv::a800();
        let truth = PerfParams::default();
        for spec in [ModelSpec::roberta_large(), ModelSpec::bert_large()] {
            let points = synthetic_points(&spec, &truth, &env);
            let drifted: Vec<DataPoint> = points
                .iter()
                .map(|p| DataPoint {
                    iter_time: 1.4 * p.iter_time,
                    ..p.clone()
                })
                .collect();
            let starts = [
                truth,
                PerfParams {
                    k_bwd: 4.9,
                    k_opt: 0.9,
                    k_swap: 31.0,
                    ..truth
                },
                PerfParams {
                    k_sync: 40.0,
                    k_const: -1.0,
                    ..truth
                },
            ];
            for pts in [&points, &drifted] {
                for start in &starts {
                    for k in [0, 1, 2, 3, 5, 8, 12, 16] {
                        let (a, fa) = refit_params(&spec, &env, start, pts, k);
                        let (b, fb) = iterate(&spec, &env, start, pts, k);
                        let bits = |p: &PerfParams| p.to_vec().map(f64::to_bits);
                        assert_eq!(bits(&a), bits(&b), "{} k={k}", spec.name);
                        assert_eq!(a.gpu_flops.to_bits(), b.gpu_flops.to_bits());
                        assert_eq!(fa.to_bits(), fb.to_bits(), "{} k={k}", spec.name);
                    }
                }
            }
        }
    }

    /// A start on `k_const`'s lower bound whose every prediction is too
    /// slow: the gradient pushes `k_const` out of the box, so the step holds
    /// it bit for bit while `k_bwd` descends towards the truth.
    #[test]
    fn step_holds_an_outward_pushed_bound_parameter() {
        let spec = ModelSpec::roberta_large();
        let env = ClusterEnv::a800();
        let truth = PerfParams {
            k_const: 0.0,
            ..PerfParams::default()
        };
        let points = synthetic_points(&spec, &truth, &env);
        let start = PerfParams {
            k_bwd: 1.5 * truth.k_bwd,
            ..truth
        };
        let (out, err) = refit_step(&spec, &env, &start, &points);
        assert_eq!(out.k_const.to_bits(), LO[6].to_bits());
        assert!(out.k_bwd < start.k_bwd, "k_bwd did not descend: {out:?}");
        assert!(err.is_finite());
    }

    /// A start on `k_const`'s lower bound whose every prediction is too
    /// fast: the gradient pushes `k_const` into the box, so it is free and
    /// the step moves it off the bound.
    #[test]
    fn step_frees_an_inward_pushed_bound_parameter() {
        let spec = ModelSpec::roberta_large();
        let env = ClusterEnv::a800();
        let truth = PerfParams::default();
        let points = synthetic_points(&spec, &truth, &env);
        let start = PerfParams {
            k_const: 0.0,
            ..truth
        };
        let (out, _) = refit_step(&spec, &env, &start, &points);
        assert!(out.k_const > LO[6], "k_const stayed on its bound: {out:?}");
    }

    /// Parameters on a bound are held only when the gradient pushes them
    /// out of the box, and only with at least one sample per parameter.
    #[test]
    fn active_set_holds_outward_bounds_of_determined_problems_only() {
        let mut x = PerfParams::default().to_vec();
        x[2] = LO[2];
        x[5] = HI[5];
        let g = [1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0];
        let held = [false, false, true, false, false, true, false];
        assert_eq!(active_set(&x, &g, 7), held);
        assert_eq!(active_set(&x, &g, 10), held);
        assert_eq!(active_set(&x, &g.map(|v| -v), 7), [false; 7]);
        for m in 0..7 {
            assert_eq!(active_set(&x, &g, m), [false; 7], "{m} samples");
        }
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
