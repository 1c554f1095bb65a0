//! Workload profiling: the "7 sampled test runs" of paper §4.3.
//!
//! Before a new model type can be scheduled, Rubick runs a handful of short
//! profiling jobs to collect throughput samples — at least seven (one per
//! fittable parameter), three of which must use ZeRO-Offload so that
//! `k_opt_off`, `k_off` and `k_swap` are identifiable. The paper reports
//! this takes ~210 s on an 8-GPU server (~30 s per sample), which
//! [`ProfileReport::wall_seconds`] accounts for.

use crate::oracle::TestbedOracle;
use rubick_model::fit::{fit_perf_params, DataPoint, FitOptions};
use rubick_model::prelude::*;

/// Wall-clock cost of one profiling sample, seconds (paper: 210 s / 7).
const SECONDS_PER_SAMPLE: f64 = 30.0;

/// The output of profiling one model type.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// The measured data points (≥ 7 when enough plans are feasible).
    pub points: Vec<DataPoint>,
    /// Effective per-GPU FLOP/s derived from a framework-reported forward
    /// time (anchors the fitted model's `T_fwd`).
    pub gpu_flops: f64,
    /// Simulated wall-clock spent profiling, seconds.
    pub wall_seconds: f64,
}

/// Collects profiling samples for new model types from the testbed.
#[derive(Debug, Clone)]
pub struct Profiler<'a> {
    oracle: &'a TestbedOracle,
}

impl<'a> Profiler<'a> {
    /// Creates a profiler backed by the given testbed.
    pub fn new(oracle: &'a TestbedOracle) -> Self {
        Profiler { oracle }
    }

    /// GPU counts to probe, scaled to where the model is feasible at all,
    /// each with its feasible plans (enumerated once per count).
    fn probes(&self, spec: &ModelSpec, global_batch: u32) -> Vec<(u32, Vec<ExecutionPlan>)> {
        let shape = self.oracle.shape();
        let env = self.oracle.env();
        [1u32, 2, 4, 8, 12, 16, 24, 32]
            .into_iter()
            .map(|g| (g, enumerate_plans(spec, g, global_batch, shape, env)))
            .filter(|(_, plans)| !plans.is_empty())
            .collect()
    }

    /// Chooses a diverse sample set: up to three ZeRO-Offload configurations
    /// plus plans of as many distinct kinds as feasible, topped up with
    /// varied parallelism configurations until at least 7 samples exist.
    fn select_configs(
        &self,
        spec: &ModelSpec,
        global_batch: u32,
    ) -> Vec<(ExecutionPlan, Placement)> {
        let shape = self.oracle.shape();
        let probes = self.probes(spec, global_batch);
        let mut selected: Vec<(ExecutionPlan, Placement)> = Vec::new();
        let push_unique =
            |sel: &mut Vec<(ExecutionPlan, Placement)>, plan: ExecutionPlan, g: u32| {
                let placement = Placement::packed(g, shape);
                if !sel.iter().any(|(p, pl)| *p == plan && *pl == placement) {
                    sel.push((plan, placement));
                }
            };
        // The first plan matching `pred`, probing the largest GPU count
        // first (where parallel effects show).
        let largest_first = |pred: &dyn Fn(&ExecutionPlan) -> bool| {
            probes
                .iter()
                .rev()
                .find_map(|(g, plans)| plans.iter().find(|p| pred(p)).map(|p| (*p, *g)))
        };

        // Pass 1: three ZeRO-Offload samples at different scales (when the
        // model can offload at all). Only offload samples are selected so
        // far, so `selected.len()` counts them.
        for (g, plans) in &probes {
            if selected.len() >= 3 {
                break;
            }
            if let Some(p) = plans.iter().find(|p| p.kind() == PlanKind::ZeroOffload) {
                push_unique(&mut selected, *p, *g);
            }
        }

        // Pass 2: one representative of each other kind.
        let kind_order = [
            PlanKind::DataParallel,
            PlanKind::ZeroDp,
            PlanKind::TensorParallel,
            PlanKind::ThreeD,
            PlanKind::Pipeline,
        ];
        for kind in kind_order {
            if let Some((p, g)) = largest_first(&|p| p.kind() == kind) {
                push_unique(&mut selected, p, g);
            }
        }

        // Pass 3: GA and GC variants expose k_bwd and accumulation behavior.
        if let Some((p, g)) = largest_first(&|p| p.ga_steps > 1 && !p.gc) {
            push_unique(&mut selected, p, g);
        }
        if let Some((p, g)) = largest_first(&|p| p.gc && p.ga_steps == 1) {
            push_unique(&mut selected, p, g);
        }

        // Pass 4: top up with varied configurations until ≥ 7.
        if selected.len() < 7 {
            'top_up: for (g, plans) in &probes {
                for p in plans {
                    push_unique(&mut selected, *p, *g);
                    if selected.len() >= 9 {
                        break 'top_up;
                    }
                }
            }
        }
        selected
    }

    /// Runs the profiling samples against the testbed.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::FitFailed`] if no plan of this model is
    /// feasible anywhere on the probed GPU counts.
    pub fn profile(
        &self,
        spec: &ModelSpec,
        global_batch: u32,
    ) -> Result<ProfileReport, ModelError> {
        let configs = self.select_configs(spec, global_batch);
        if configs.is_empty() {
            return Err(ModelError::FitFailed {
                reason: format!("no feasible plan found while profiling {}", spec.name),
            });
        }
        let mut points = Vec::with_capacity(configs.len());
        let mut gpu_flops = None;
        for (plan, placement) in configs {
            let m = self.oracle.measure(spec, &plan, global_batch, &placement)?;
            if gpu_flops.is_none() && plan.parallel.pp == 1 {
                // Anchor effective FLOP/s from the framework's forward time.
                let per_pass_samples =
                    global_batch as f64 / (plan.parallel.dp as f64 * plan.ga_steps as f64);
                let work = spec.fwd_flops_per_sample() * per_pass_samples / plan.parallel.tp as f64;
                gpu_flops = Some(work / m.fwd_time);
            }
            points.push(DataPoint::new(plan, placement, global_batch, m.iter_time));
        }
        // Fall back: derive the anchor from a pipeline sample.
        let gpu_flops = gpu_flops.unwrap_or_else(|| {
            let p0 = &points[0];
            let par = p0.plan.parallel;
            let m = p0.plan.micro_batches as f64;
            let stage_time = {
                // Re-measure to recover fwd_time for the PP point.
                let meas = self
                    .oracle
                    .measure(spec, &p0.plan, p0.global_batch, &p0.placement)
                    .expect("previously measured config");
                meas.fwd_time / (m + par.pp as f64 - 1.0)
            };
            spec.fwd_flops_per_sample() * (p0.global_batch as f64 / (par.dp as f64 * m))
                / (par.tp as f64 * par.pp as f64)
                / stage_time
        });
        let wall_seconds = points.len() as f64 * SECONDS_PER_SAMPLE;
        Ok(ProfileReport {
            points,
            gpu_flops,
            wall_seconds,
        })
    }
}

/// Profiles a model type and fits its performance model in one step —
/// phase ① of the Rubick workflow (Fig. 4).
///
/// # Errors
///
/// Propagates profiling and fitting failures.
///
/// ```
/// use rubick_testbed::{profile_and_fit, TestbedOracle};
/// use rubick_model::ModelSpec;
///
/// # fn main() -> Result<(), rubick_model::ModelError> {
/// let oracle = TestbedOracle::new(7);
/// let spec = ModelSpec::roberta_large();
/// let (model, report) = profile_and_fit(&oracle, &spec, 64)?;
/// assert!(report.points.len() >= 7);
/// assert!(model.best_plan(64, &rubick_model::Placement::packed(4, &model.shape)).is_some());
/// # Ok(())
/// # }
/// ```
pub fn profile_and_fit(
    oracle: &TestbedOracle,
    spec: &ModelSpec,
    global_batch: u32,
) -> Result<(ThroughputModel, ProfileReport), ModelError> {
    let report = Profiler::new(oracle).profile(spec, global_batch)?;
    let opts = FitOptions {
        gpu_flops: report.gpu_flops,
        min_points: report.points.len().min(7),
        ..FitOptions::default()
    };
    let fit = fit_perf_params(spec, oracle.env(), &report.points, &opts)?;
    let model = ThroughputModel::new(spec.clone(), fit.params, *oracle.env(), *oracle.shape());
    Ok((model, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiling_collects_at_least_seven_points_for_small_models() {
        let oracle = TestbedOracle::new(11);
        for spec in [
            ModelSpec::vit_base(),
            ModelSpec::roberta_large(),
            ModelSpec::gpt2_xl(),
        ] {
            let report = Profiler::new(&oracle)
                .profile(&spec, spec.default_batch)
                .unwrap();
            assert!(
                report.points.len() >= 7,
                "{}: only {} points",
                spec.name,
                report.points.len()
            );
            let offload = report
                .points
                .iter()
                .filter(|p| p.plan.kind() == PlanKind::ZeroOffload)
                .count();
            assert!(offload >= 3, "{}: only {offload} offload points", spec.name);
        }
    }

    #[test]
    fn profiling_wall_time_matches_paper_scale() {
        let oracle = TestbedOracle::new(11);
        let report = Profiler::new(&oracle)
            .profile(&ModelSpec::bert_large(), 64)
            .unwrap();
        // ~30 s per sample; the paper reports 210 s for 7 samples.
        assert!(report.wall_seconds >= 210.0);
        assert!(report.wall_seconds <= 400.0);
    }

    #[test]
    fn thirty_b_profiles_without_offload() {
        let oracle = TestbedOracle::new(11);
        let spec = ModelSpec::llama_30b();
        let report = Profiler::new(&oracle).profile(&spec, 64).unwrap();
        assert!(!report.points.is_empty());
        assert!(report
            .points
            .iter()
            .all(|p| p.plan.kind() != PlanKind::ZeroOffload));
    }

    #[test]
    fn fitted_model_predicts_unseen_configs_within_table2_errors() {
        let oracle = TestbedOracle::new(3);
        let spec = ModelSpec::gpt2_xl();
        let (model, report) = profile_and_fit(&oracle, &spec, 16).unwrap();
        // Predict configurations not in the training set.
        let mut errors = Vec::new();
        for g in [1u32, 2, 4, 6, 8] {
            let placement = Placement::packed(g, oracle.shape());
            for plan in enumerate_plans(&spec, g, 16, oracle.shape(), oracle.env()) {
                if report
                    .points
                    .iter()
                    .any(|p| p.plan == plan && p.placement == placement)
                {
                    continue;
                }
                let (Some(actual), Ok(pred)) = (
                    oracle.throughput(&spec, &plan, 16, &placement),
                    model.throughput(&plan, 16, &placement),
                ) else {
                    continue;
                };
                errors.push((pred - actual).abs() / actual);
            }
        }
        assert!(errors.len() > 10);
        let avg = errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(avg < 0.15, "average prediction error too high: {avg:.3}");
    }

    /// The default fit's starts reach, within 1% RMSLE, what twelve starts
    /// reach over the zoo's profiles.
    #[test]
    fn default_starts_match_twelve_starts() {
        for seed in [2025, 7, 11] {
            let oracle = TestbedOracle::new(seed);
            for spec in ModelSpec::zoo() {
                let report = Profiler::new(&oracle)
                    .profile(&spec, spec.default_batch)
                    .unwrap();
                let opts = FitOptions {
                    gpu_flops: report.gpu_flops,
                    min_points: report.points.len().min(7),
                    ..FitOptions::default()
                };
                let twelve = FitOptions {
                    restarts: 12,
                    ..opts
                };
                let fit = |o| fit_perf_params(&spec, oracle.env(), &report.points, o).unwrap();
                let (default, more) = (fit(&opts).rmsle, fit(&twelve).rmsle);
                assert!(
                    default <= 1.01 * more,
                    "{} at seed {seed}: {default} vs {more} from 12 starts",
                    spec.name
                );
            }
        }
    }
}
