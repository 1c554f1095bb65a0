//! Training-loss simulation for the accuracy experiments (Fig. 9, Table 3).
//!
//! Rubick keeps the global batch size unchanged during reconfiguration, so
//! the expected loss trajectory is unaffected; only tiny numeric
//! perturbations remain (operator reordering, different reduction trees).
//! Changing the random seed, by contrast, changes the whole stochastic
//! path. [`LossSimulator`] models exactly that structure:
//!
//! * a deterministic convergence curve `L∞ + (L₀ − L∞)·exp(−k/τ)` per model;
//! * a **seed-level** AR(1) noise process (large, slowly wandering);
//! * a **plan-level** i.i.d. perturbation (small), switching with the
//!   active plan of a reconfiguration schedule.
//!
//! The paper's claim — the loss difference caused by reconfiguration stays
//! within the difference caused by changing seeds — falls out of the
//! magnitudes (`σ_plan ≪ σ_seed`), and the experiment binaries measure it
//! the same way the paper does.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rubick_model::{ExecutionPlan, ModelSpec};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Seed-level AR(1) noise magnitude (loss units).
const SIGMA_SEED: f64 = 0.08;
/// AR(1) persistence of the seed-level noise.
const RHO_SEED: f64 = 0.98;
/// Plan-level perturbation magnitude (loss units) — much smaller.
const SIGMA_PLAN: f64 = 0.02;

/// One phase of a reconfiguration schedule: from `from_step` onwards the
/// job runs under the plan identified by `plan_tag`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanPhase {
    /// First mini-batch index of this phase.
    pub from_step: usize,
    /// Identity of the plan (see [`plan_tag`]).
    pub plan_tag: u64,
}

/// Derives a stable tag identifying an execution plan's numerics.
pub fn plan_tag(plan: &ExecutionPlan) -> u64 {
    let mut h = DefaultHasher::new();
    plan.hash(&mut h);
    h.finish()
}

/// A simulated training run: per-step train losses plus final
/// validation/test losses.
#[derive(Debug, Clone, PartialEq)]
pub struct LossTrace {
    /// Train loss after each mini-batch.
    pub train: Vec<f64>,
    /// Validation loss at the end of the run.
    pub validation: f64,
    /// Test loss at the end of the run.
    pub test: f64,
}

impl LossTrace {
    /// Maximum absolute per-step train-loss difference versus another trace
    /// of the same length (the quantity Fig. 9 plots and Table 3 reports).
    pub fn max_diff(&self, other: &LossTrace) -> f64 {
        self.train
            .iter()
            .zip(&other.train)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Simulates training-loss trajectories for one model type.
///
/// ```
/// use rubick_testbed::loss::{plan_tag, LossSimulator, PlanPhase};
/// use rubick_model::{ExecutionPlan, ModelSpec};
///
/// let sim = LossSimulator::new(&ModelSpec::gpt2_xl(), 0);
/// let a = plan_tag(&ExecutionPlan::dp(8).with_ga(2));
/// let b = plan_tag(&ExecutionPlan::zero_dp(4));
/// // Same seed, reconfigured at step 1500:
/// let base = sim.run(3000, 7, &[PlanPhase { from_step: 0, plan_tag: a }]);
/// let rcfg = sim.run(
///     3000,
///     7,
///     &[
///         PlanPhase { from_step: 0, plan_tag: a },
///         PlanPhase { from_step: 1500, plan_tag: b },
///     ],
/// );
/// // Different seed, same plan:
/// let seed = sim.run(3000, 8, &[PlanPhase { from_step: 0, plan_tag: a }]);
/// assert!(base.max_diff(&rcfg) < base.max_diff(&seed));
/// ```
#[derive(Debug, Clone)]
pub struct LossSimulator {
    model_name: String,
    sim_seed: u64,
    l_start: f64,
    l_final: f64,
    tau: f64,
}

impl LossSimulator {
    /// Creates a simulator whose convergence curve is derived from the
    /// model size (bigger models start higher and converge slower).
    pub fn new(spec: &ModelSpec, sim_seed: u64) -> Self {
        let b = spec.params_b().max(0.05);
        LossSimulator {
            model_name: spec.name.clone(),
            sim_seed,
            l_start: 8.0 + b.ln_1p(),
            l_final: 1.8 + 0.3 * b.ln_1p(),
            tau: 600.0 + 150.0 * b.ln_1p(),
        }
    }

    fn stream(&self, parts: &[u64]) -> SmallRng {
        let mut h = DefaultHasher::new();
        self.sim_seed.hash(&mut h);
        self.model_name.hash(&mut h);
        for p in parts {
            p.hash(&mut h);
        }
        SmallRng::seed_from_u64(h.finish())
    }

    /// Expected (noise-free) train loss after `step` mini-batches.
    pub fn expected(&self, step: usize) -> f64 {
        self.l_final + (self.l_start - self.l_final) * (-(step as f64) / self.tau).exp()
    }

    /// Simulates `steps` mini-batches under a reconfiguration schedule.
    ///
    /// `run_seed` is the training job's random seed: runs sharing it share
    /// the dominant noise path. `schedule` must be non-empty and sorted by
    /// `from_step`, with the first phase starting at step 0.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty or does not start at step 0.
    pub fn run(&self, steps: usize, run_seed: u64, schedule: &[PlanPhase]) -> LossTrace {
        assert!(
            !schedule.is_empty(),
            "schedule must contain at least one phase"
        );
        assert_eq!(schedule[0].from_step, 0, "first phase must start at step 0");
        let mut seed_rng = self.stream(&[run_seed, 0x5eed]);
        let mut train = Vec::with_capacity(steps);
        let mut ar = 0.0f64;
        let mut phase_idx = 0usize;
        for k in 0..steps {
            while phase_idx + 1 < schedule.len() && schedule[phase_idx + 1].from_step <= k {
                phase_idx += 1;
            }
            let tag = schedule[phase_idx].plan_tag;
            // Seed-level AR(1) path (shared between runs with equal seeds).
            let z: f64 = seed_rng.random::<f64>() * 2.0 - 1.0;
            ar = RHO_SEED * ar + (1.0 - RHO_SEED * RHO_SEED).sqrt() * z * SIGMA_SEED * 3.0;
            // Plan-level i.i.d. perturbation (switches with the plan).
            let mut prng = self.stream(&[tag, k as u64, 0x9a11]);
            let plan_noise = (prng.random::<f64>() * 2.0 - 1.0) * SIGMA_PLAN;
            train.push((self.expected(k) + ar + plan_noise).max(0.0));
        }
        let last_tag = schedule.last().map(|p| p.plan_tag).unwrap_or(0);
        let mut vrng = self.stream(&[run_seed, 0x7a1]);
        let mut trng = self.stream(&[run_seed, 0x7e5]);
        let mut pv = self.stream(&[last_tag, 0x7a1]);
        let mut pt = self.stream(&[last_tag, 0x7e5]);
        let end = self.expected(steps) + ar;
        let validation = end
            + 0.12
            + (vrng.random::<f64>() * 2.0 - 1.0) * SIGMA_SEED
            + (pv.random::<f64>() * 2.0 - 1.0) * SIGMA_PLAN;
        let test = end
            + 0.18
            + (trng.random::<f64>() * 2.0 - 1.0) * SIGMA_SEED * 1.4
            + (pt.random::<f64>() * 2.0 - 1.0) * SIGMA_PLAN;
        LossTrace {
            train,
            validation,
            test,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubick_model::ExecutionPlan;

    fn sim() -> LossSimulator {
        LossSimulator::new(&ModelSpec::gpt2_xl(), 1)
    }

    fn phase(tag: u64) -> Vec<PlanPhase> {
        vec![PlanPhase {
            from_step: 0,
            plan_tag: tag,
        }]
    }

    #[test]
    fn losses_decrease_over_training() {
        let s = sim();
        let trace = s.run(3000, 0, &phase(1));
        let early: f64 = trace.train[..100].iter().sum::<f64>() / 100.0;
        let late: f64 = trace.train[2900..].iter().sum::<f64>() / 100.0;
        assert!(late < early - 1.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let s = sim();
        let a = s.run(500, 3, &phase(9));
        let b = s.run(500, 3, &phase(9));
        assert_eq!(a, b);
    }

    #[test]
    fn reconfig_noise_smaller_than_seed_noise() {
        let s = sim();
        let a = plan_tag(&ExecutionPlan::dp(8).with_ga(2));
        let b = plan_tag(&ExecutionPlan::zero_dp(4));
        let base = s.run(3000, 0, &phase(a));
        let rcfg = s.run(
            3000,
            0,
            &[
                PlanPhase {
                    from_step: 0,
                    plan_tag: a,
                },
                PlanPhase {
                    from_step: 1000,
                    plan_tag: b,
                },
            ],
        );
        let seed = s.run(3000, 1, &phase(a));
        let d_rcfg = base.max_diff(&rcfg);
        let d_seed = base.max_diff(&seed);
        assert!(
            d_rcfg < d_seed,
            "reconfig diff {d_rcfg:.3} should be below seed diff {d_seed:.3}"
        );
        // Magnitudes in the ballpark of Table 3.
        assert!(d_rcfg < 0.15);
        assert!(d_seed > 0.05);
    }

    #[test]
    fn validation_and_test_follow_the_same_ordering() {
        let s = sim();
        let a = plan_tag(&ExecutionPlan::dp(8));
        let b = plan_tag(&ExecutionPlan::zero_dp(8));
        let base = s.run(3000, 0, &phase(a));
        let rcfg = s.run(3000, 0, &phase(b));
        let seed = s.run(3000, 5, &phase(a));
        let v_rcfg = (base.validation - rcfg.validation).abs();
        let v_seed = (base.validation - seed.validation).abs();
        // Plan-level validation jitter is bounded by sigma scales.
        assert!(v_rcfg < 0.1);
        // Seed change includes the full seed-level noise; allow it to be
        // larger or comparable.
        assert!(v_seed + 0.05 > v_rcfg);
    }

    #[test]
    fn schedule_must_start_at_zero() {
        let s = sim();
        let bad = [PlanPhase {
            from_step: 5,
            plan_tag: 1,
        }];
        assert!(std::panic::catch_unwind(|| s.run(10, 0, &bad)).is_err());
    }

    #[test]
    fn expected_curve_is_monotone() {
        let s = sim();
        for k in 0..100 {
            assert!(s.expected(k * 30) >= s.expected((k + 1) * 30));
        }
    }
}
