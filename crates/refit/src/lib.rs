//! # rubick-refit
//!
//! **Online throughput-model refitting** from the live event stream.
//!
//! Rubick's reconfiguration decisions are only as good as its 7-parameter
//! throughput model (paper §4), and the offline profile that seeds it is
//! sparse: a handful of configurations measured once, before the job ever
//! ran at scale. Pollux (OSDI '21) and DL2 showed that fitting throughput
//! models *from observed execution* closes the gap between predicted and
//! real sensitivity curves. This crate is that loop for the Rubick
//! reproduction:
//!
//! 1. The engine pushes every oracle measurement (noise included) through
//!    the [`rubick_sim::RefitHook`] boundary.
//! 2. [`RegistryRefitter`] accumulates a bounded, deduplicated
//!    per-model-type observation window and checks the current model's
//!    predictions against it.
//! 3. When the worst relative prediction error exceeds the threshold, the
//!    window is re-fit with damped Gauss–Newton steps
//!    ([`rubick_model::fit::refit_params`]) seeded from the current
//!    parameters — one warm-started run of the descent the profile fit
//!    runs from 12 starts.
//!
//!    Steps 2–3 are skipped for a **settled** window: one that has not
//!    changed since it was last judged, without a publish, under
//!    bit-identical parameters. The gate and the fit are pure functions
//!    of (parameters, window), so re-judging would return the same
//!    immaterial verdict. Re-observing a configuration is the common case
//!    — the oracle's noise is a deterministic hash of the configuration,
//!    so the replaced sample is bit-identical — and it costs one window
//!    lookup.
//! 4. A **material-change test** (relative envelope shift of predictions
//!    over the window above the same threshold) decides whether the new
//!    parameters are swapped into the shared [`ModelRegistry`]. A swap
//!    bumps the registry version, which the incremental schedulers
//!    fingerprint — so `DirtyTracker` re-plans every affected job on the
//!    next round through the *existing* epoch path, no new plumbing.
//!
//! ## Determinism
//!
//! The refitter is a pure fold over the observation sequence: `BTreeMap`
//! windows, no clocks, no randomness, and the engine invokes the hook
//! after each round's scheduler computation has fully completed. Same
//! seed + same observation order ⇒ bit-identical refits on every run;
//! hook absent ⇒ byte-identical streams to pre-refit builds.
//!
//! ## Chaos
//!
//! Straggler-capped observations (`straggler_factor < 1`) are *excluded*
//! from the window: a sick node's slowdown is a property of the node, not
//! of the model, and fitting it would corrupt predictions for every other
//! placement. The exclusion counter is exposed so tests can pin this.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

use rubick_core::ModelRegistry;
use rubick_model::fit::{refit_params, DataPoint};
use rubick_model::perf::IterTerms;
use rubick_model::{PerfParams, ThroughputModel};
use rubick_sim::{RefitHook, RefitObservation, RefitOutcome};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Tuning knobs for [`RegistryRefitter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefitConfig {
    /// Material-change threshold: a refit is attempted when the worst
    /// relative prediction error over the window exceeds this, and the
    /// new parameters are swapped in only when they shift the predicted
    /// envelope by more than this (relative). Default 0.15.
    pub threshold: f64,
    /// Minimum window size before a refit is attempted — one point can
    /// always be fit perfectly, so demanding a few guards against chasing
    /// noise.
    pub min_points: usize,
    /// Window cap per model type; the oldest observation is evicted
    /// first. Default 28.
    pub max_window: usize,
    /// Damped Gauss–Newton steps per refit attempt.
    pub max_steps: usize,
}

impl Default for RefitConfig {
    fn default() -> Self {
        RefitConfig {
            threshold: 0.15,
            min_points: 3,
            max_window: 28,
            max_steps: 12,
        }
    }
}

impl RefitConfig {
    /// A config with a custom material-change threshold (CLI
    /// `--refit-threshold`), everything else default.
    pub fn with_threshold(threshold: f64) -> Self {
        RefitConfig {
            threshold,
            ..RefitConfig::default()
        }
    }
}

/// Counters describing what a [`RegistryRefitter`] did, for reports and
/// tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RefitStats {
    /// Observations offered to the refitter.
    pub observed: u64,
    /// Observations excluded because a chaos straggler capped them.
    pub skipped_stragglers: u64,
    /// Observations dropped as unusable (unknown model type, non-finite
    /// or non-positive iteration time).
    pub skipped_invalid: u64,
    /// Observations answered from a settled window: the window and the
    /// model's parameters were unchanged since the last immaterial
    /// verdict, so neither the gate nor the fit ran.
    pub settled: u64,
    /// Refit attempts: fits actually run because the prediction error
    /// exceeded the threshold.
    pub attempts: u64,
    /// Material refits: new parameters swapped into the registry.
    pub refits: u64,
}

/// The registry-backed [`RefitHook`]: a recursive estimator that keeps
/// each model type's 7-parameter throughput model in sync with the live
/// measurement stream.
///
/// ```no_run
/// use rubick_core::ModelRegistry;
/// use rubick_refit::{RefitConfig, RegistryRefitter};
/// use std::sync::Arc;
///
/// # let registry: Arc<ModelRegistry> = unimplemented!();
/// let refitter = RegistryRefitter::new(Arc::clone(&registry), RefitConfig::default());
/// // engine.set_refit_hook(Box::new(refitter));
/// ```
pub struct RegistryRefitter {
    registry: Arc<ModelRegistry>,
    config: RefitConfig,
    /// Per-model-type observation windows.
    windows: BTreeMap<String, Window>,
    stats: RefitStats,
    /// Scratch: Eq. 1's parameter-independent terms of the window being
    /// checked, one per point.
    terms: Vec<IterTerms>,
}

/// One model type's observation window, deduplicated by configuration
/// (plan + placement + batch): re-observing a configuration replaces the
/// stale sample instead of double-weighting it.
#[derive(Default)]
struct Window {
    points: Vec<DataPoint>,
    /// Bit pattern of the parameters (all eight [`PerfParams`] fields)
    /// under which `points` was last judged without a publish. Cleared by
    /// any change to `points` and by a publish. Keyed on the parameters,
    /// not the registry version, so another model's publish leaves this
    /// verdict standing.
    settled: Option<[u64; 8]>,
}

/// The exact bit pattern of every field of `p`, the key of a settled
/// verdict.
fn param_bits(p: &PerfParams) -> [u64; 8] {
    let [a, b, c, d, e, f, g] = p.to_vec();
    [a, b, c, d, e, f, g, p.gpu_flops].map(f64::to_bits)
}

impl RegistryRefitter {
    /// Wraps the shared registry. The refitter holds its own `Arc`, so the
    /// scheduler(s) reading the registry and the refitter writing it see
    /// the same models — a swap is visible to the next round immediately.
    pub fn new(registry: Arc<ModelRegistry>, config: RefitConfig) -> Self {
        RegistryRefitter {
            registry,
            config,
            windows: BTreeMap::new(),
            stats: RefitStats::default(),
            terms: Vec::new(),
        }
    }

    /// What the refitter has done so far.
    pub fn stats(&self) -> RefitStats {
        self.stats
    }

    /// Current window size for a model type (0 when never observed).
    pub fn window_len(&self, model: &str) -> usize {
        self.windows.get(model).map_or(0, |w| w.points.len())
    }

    /// Worst relative prediction error of `params` over `points`, whose
    /// Eq. 1 terms under `params.gpu_flops` are `terms`.
    fn max_rel_error(params: &PerfParams, terms: &[IterTerms], points: &[DataPoint]) -> f64 {
        points
            .iter()
            .zip(terms)
            .map(|(p, t)| {
                let pred = params.iter_time_from(t);
                ((pred - p.iter_time) / p.iter_time).abs()
            })
            .fold(0.0_f64, f64::max)
    }

    /// Relative envelope shift between two parameter sets sharing
    /// `gpu_flops` over the window whose terms are `terms`: the largest
    /// relative change in predicted iteration time.
    fn envelope_shift(old: &PerfParams, new: &PerfParams, terms: &[IterTerms]) -> f64 {
        debug_assert_eq!(old.gpu_flops.to_bits(), new.gpu_flops.to_bits());
        terms
            .iter()
            .map(|t| {
                let a = old.iter_time_from(t);
                let b = new.iter_time_from(t);
                if a > 0.0 {
                    ((b - a) / a).abs()
                } else {
                    0.0
                }
            })
            .fold(0.0_f64, f64::max)
    }
}

impl RefitHook for RegistryRefitter {
    fn observe(&mut self, obs: &RefitObservation<'_>) -> Option<RefitOutcome> {
        self.stats.observed += 1;
        if obs.straggler_factor < 1.0 {
            // A capped measurement reflects the sick node, not the model.
            self.stats.skipped_stragglers += 1;
            return None;
        }
        if !(obs.iter_time.is_finite() && obs.iter_time > 0.0) {
            self.stats.skipped_invalid += 1;
            return None;
        }
        let Some(model) = self.registry.model(obs.model) else {
            self.stats.skipped_invalid += 1;
            return None;
        };

        // Window maintenance: replace a re-observed configuration, evict
        // the oldest when full. Only first sight of a model type and a
        // new or changed sample allocate.
        if !self.windows.contains_key(obs.model) {
            self.windows
                .insert(obs.model.to_string(), Window::default());
        }
        let window = self
            .windows
            .get_mut(obs.model)
            .expect("window inserted above");
        if let Some(existing) = window.points.iter_mut().find(|p| {
            p.plan == *obs.plan
                && p.placement == *obs.placement
                && p.global_batch == obs.global_batch
        }) {
            if existing.iter_time.to_bits() != obs.iter_time.to_bits() {
                existing.iter_time = obs.iter_time;
                window.settled = None;
            }
        } else {
            if window.points.len() >= self.config.max_window.max(1) {
                window.points.remove(0);
            }
            window.points.push(DataPoint::new(
                *obs.plan,
                obs.placement.clone(),
                obs.global_batch,
                obs.iter_time,
            ));
            window.settled = None;
        }
        if window.points.len() < self.config.min_points {
            return None;
        }

        // Settled: the same window was already judged immaterial under
        // these exact parameters, and the verdict is a pure function of
        // the two.
        let old_params = model.params;
        let bits = param_bits(&old_params);
        if window.settled == Some(bits) {
            self.stats.settled += 1;
            return None;
        }

        // One pass of Eq. 1's parameter-independent terms serves the gate
        // and the envelope shift: a refit keeps `gpu_flops`.
        self.terms.clear();
        self.terms.extend(window.points.iter().map(|p| {
            old_params.iter_terms(
                &model.spec,
                &p.plan,
                p.global_batch,
                &p.placement,
                &model.env,
            )
        }));

        // Gate: is the current model still within tolerance of what the
        // cluster actually measured?
        if Self::max_rel_error(&old_params, &self.terms, &window.points) <= self.config.threshold {
            window.settled = Some(bits);
            return None;
        }
        self.stats.attempts += 1;

        // Incremental refit seeded from the current parameters.
        let (new_params, _err) = refit_params(
            &model.spec,
            &model.env,
            &old_params,
            &window.points,
            self.config.max_steps,
        );

        // Material-change test: only a shift of the predicted envelope
        // beyond the threshold justifies invalidating every cached plan.
        // A NaN shift is immaterial by definition, so test for the
        // affirmative and bail otherwise.
        let shift = Self::envelope_shift(&old_params, &new_params, &self.terms);
        let material = shift > self.config.threshold;
        if !material {
            window.settled = Some(bits);
            return None;
        }
        window.settled = None;
        self.registry.insert(ThroughputModel::new(
            model.spec.clone(),
            new_params,
            model.env,
            *self.registry.shape(),
        ));
        self.stats.refits += 1;
        Some(RefitOutcome {
            model: obs.model.to_string(),
            shift,
            old_params: old_params.to_vec(),
            new_params: new_params.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubick_model::{ClusterEnv, ExecutionPlan, ModelSpec, NodeShape, Placement};
    use rubick_testbed::TestbedOracle;

    fn registry(seed: u64) -> Arc<ModelRegistry> {
        let oracle = TestbedOracle::new(seed);
        Arc::new(ModelRegistry::from_oracle(&oracle, &[ModelSpec::roberta_large()]).unwrap())
    }

    fn obs<'a>(
        plan: &'a ExecutionPlan,
        placement: &'a Placement,
        iter_time: f64,
        straggler: f64,
    ) -> RefitObservation<'a> {
        RefitObservation {
            at: 0.0,
            model: "roberta-355m",
            plan,
            placement,
            global_batch: 64,
            iter_time,
            straggler_factor: straggler,
        }
    }

    /// Drifted truth: the fitted model's prediction scaled by a constant
    /// factor (as if the real cluster ran 40% slower than profiled).
    fn drifted_iter_time(reg: &ModelRegistry, plan: &ExecutionPlan, placement: &Placement) -> f64 {
        1.4 * predicted(reg, plan, placement)
    }

    /// The registry model's current prediction.
    fn predicted(reg: &ModelRegistry, plan: &ExecutionPlan, placement: &Placement) -> f64 {
        let model = reg.model("roberta-355m").unwrap();
        model
            .params
            .iter_time(&model.spec, plan, 64, placement, &model.env)
    }

    fn configs(shape: &NodeShape) -> Vec<(ExecutionPlan, Placement)> {
        (1..=4u32)
            .map(|i| {
                let gpus = 1 << (i - 1); // 1, 2, 4, 8
                (ExecutionPlan::dp(gpus), Placement::packed(gpus, shape))
            })
            .collect()
    }

    #[test]
    fn drifted_observations_trigger_a_material_refit() {
        let reg = registry(11);
        let shape = *reg.shape();
        let mut refitter = RegistryRefitter::new(Arc::clone(&reg), RefitConfig::default());
        let v0 = reg.version();
        let mut outcome = None;
        for (plan, placement) in configs(&shape) {
            let t = drifted_iter_time(&reg, &plan, &placement);
            if let Some(o) = refitter.observe(&obs(&plan, &placement, t, 1.0)) {
                outcome = Some(o);
                break;
            }
        }
        let outcome = outcome.expect("40% drift over >=3 configs must refit");
        assert!(outcome.shift > 0.15, "shift {}", outcome.shift);
        assert_eq!(outcome.model, "roberta-355m");
        assert!(reg.version() > v0, "registry version must bump on refit");
        assert_eq!(refitter.stats().refits, 1);
        // The refreshed model now predicts the drifted truth much better.
        let model = reg.model("roberta-355m").unwrap();
        let old = PerfParams::from_vec(&outcome.old_params, model.params.gpu_flops);
        for (plan, placement) in configs(&shape) {
            let truth = {
                let m = ThroughputModel::new(model.spec.clone(), old, model.env, shape);
                1.4 * old.iter_time(&m.spec, &plan, 64, &placement, &m.env)
            };
            let new_err = (model
                .params
                .iter_time(&model.spec, &plan, 64, &placement, &model.env)
                - truth)
                .abs()
                / truth;
            let old_err = (old.iter_time(&model.spec, &plan, 64, &placement, &model.env) - truth)
                .abs()
                / truth;
            assert!(
                new_err < old_err,
                "refit must tighten {plan:?}: {new_err} vs {old_err}"
            );
        }
    }

    #[test]
    fn accurate_observations_never_refit() {
        let reg = registry(11);
        let shape = *reg.shape();
        let mut refitter = RegistryRefitter::new(Arc::clone(&reg), RefitConfig::default());
        let v0 = reg.version();
        let model = reg.model("roberta-355m").unwrap();
        for (plan, placement) in configs(&shape) {
            let pred = model
                .params
                .iter_time(&model.spec, &plan, 64, &placement, &model.env);
            assert!(refitter
                .observe(&obs(&plan, &placement, pred, 1.0))
                .is_none());
        }
        assert_eq!(reg.version(), v0);
        assert_eq!(refitter.stats().attempts, 0);
        assert_eq!(refitter.stats().observed, 4);
    }

    #[test]
    fn straggler_capped_observations_are_excluded() {
        let reg = registry(11);
        let shape = *reg.shape();
        let mut refitter = RegistryRefitter::new(Arc::clone(&reg), RefitConfig::default());
        let v0 = reg.version();
        // Wildly wrong observations, but all carrying a straggler cap:
        // none may enter the window, let alone refit.
        for (plan, placement) in configs(&shape) {
            let t = 10.0 * drifted_iter_time(&reg, &plan, &placement);
            assert!(refitter.observe(&obs(&plan, &placement, t, 0.5)).is_none());
        }
        assert_eq!(refitter.window_len("roberta-355m"), 0);
        assert_eq!(refitter.stats().skipped_stragglers, 4);
        assert_eq!(reg.version(), v0);
    }

    #[test]
    fn invalid_and_unknown_observations_are_dropped() {
        let reg = registry(11);
        let shape = *reg.shape();
        let mut refitter = RegistryRefitter::new(Arc::clone(&reg), RefitConfig::default());
        let plan = ExecutionPlan::dp(2);
        let placement = Placement::packed(2, &shape);
        assert!(refitter
            .observe(&obs(&plan, &placement, f64::NAN, 1.0))
            .is_none());
        assert!(refitter
            .observe(&obs(&plan, &placement, -1.0, 1.0))
            .is_none());
        let mut unknown = obs(&plan, &placement, 1.0, 1.0);
        unknown.model = "never-profiled";
        assert!(refitter.observe(&unknown).is_none());
        assert_eq!(refitter.stats().skipped_invalid, 3);
        assert_eq!(refitter.window_len("roberta-355m"), 0);
    }

    #[test]
    fn window_deduplicates_and_caps() {
        let reg = registry(11);
        let shape = *reg.shape();
        let config = RefitConfig {
            max_window: 2,
            // Effectively disable refitting so only windowing is observed.
            threshold: f64::INFINITY,
            ..RefitConfig::default()
        };
        let mut refitter = RegistryRefitter::new(Arc::clone(&reg), config);
        let plan = ExecutionPlan::dp(2);
        let placement = Placement::packed(2, &shape);
        // Same configuration twice: replaced, not appended.
        refitter.observe(&obs(&plan, &placement, 1.0, 1.0));
        refitter.observe(&obs(&plan, &placement, 2.0, 1.0));
        assert_eq!(refitter.window_len("roberta-355m"), 1);
        assert_eq!(refitter.windows["roberta-355m"].points[0].iter_time, 2.0);
        // Two more distinct configurations: the cap evicts the oldest.
        let p4 = ExecutionPlan::dp(4);
        let pl4 = Placement::packed(4, &shape);
        refitter.observe(&obs(&p4, &pl4, 1.0, 1.0));
        let p8 = ExecutionPlan::dp(8);
        let pl8 = Placement::packed(8, &shape);
        refitter.observe(&obs(&p8, &pl8, 1.0, 1.0));
        assert_eq!(refitter.window_len("roberta-355m"), 2);
        assert!(refitter.windows["roberta-355m"]
            .points
            .iter()
            .all(|p| p.plan != plan));
    }

    /// Observations the current model misses by 20% in both directions:
    /// the gate fails, but the best fit barely moves the envelope, so the
    /// attempt ends immaterial and the window settles.
    fn balanced_miss(
        reg: &ModelRegistry,
        shape: &NodeShape,
    ) -> Vec<(ExecutionPlan, Placement, f64)> {
        configs(shape)
            .into_iter()
            .enumerate()
            .map(|(i, (plan, placement))| {
                let t = predicted(reg, &plan, &placement);
                let t = if i % 2 == 0 { t * 1.2 } else { t / 1.2 };
                (plan, placement, t)
            })
            .collect()
    }

    /// Feeds `points` and returns the refitter, asserting the window ended
    /// settled after one immaterial attempt.
    fn settled_refitter(
        reg: &Arc<ModelRegistry>,
        points: &[(ExecutionPlan, Placement, f64)],
    ) -> RegistryRefitter {
        let mut refitter = RegistryRefitter::new(Arc::clone(reg), RefitConfig::default());
        for (plan, placement, t) in &points[..3] {
            assert!(refitter.observe(&obs(plan, placement, *t, 1.0)).is_none());
        }
        let stats = refitter.stats();
        assert_eq!((stats.attempts, stats.refits, stats.settled), (1, 0, 0));
        refitter
    }

    #[test]
    fn identical_reobservation_is_answered_from_the_settled_window() {
        let reg = registry(11);
        let points = balanced_miss(&reg, reg.shape());
        let mut refitter = settled_refitter(&reg, &points);
        let v0 = reg.version();
        for _ in 0..3 {
            let (plan, placement, t) = &points[1];
            assert!(refitter.observe(&obs(plan, placement, *t, 1.0)).is_none());
        }
        let stats = refitter.stats();
        assert_eq!(stats.settled, 3);
        assert_eq!(stats.attempts, 1, "a settled window runs no fit");
        assert_eq!(reg.version(), v0);
    }

    #[test]
    fn a_changed_window_rearms_the_gate() {
        let reg = registry(11);
        let points = balanced_miss(&reg, reg.shape());
        let mut refitter = settled_refitter(&reg, &points);
        let (plan, placement, t) = &points[1];
        refitter.observe(&obs(plan, placement, t * 1.001, 1.0));
        assert_eq!(
            refitter.window_len("roberta-355m"),
            3,
            "replaced, not appended"
        );
        let stats = refitter.stats();
        assert_eq!((stats.settled, stats.attempts), (0, 2));
        // The new verdict settles in turn.
        refitter.observe(&obs(plan, placement, t * 1.001, 1.0));
        assert_eq!(refitter.stats().settled, 1);
        // An appended configuration re-arms it again.
        let (plan, placement, t) = &points[3];
        refitter.observe(&obs(plan, placement, *t, 1.0));
        assert_eq!(refitter.window_len("roberta-355m"), 4);
        let stats = refitter.stats();
        assert_eq!((stats.settled, stats.attempts), (1, 3));
    }

    #[test]
    fn outside_params_rearm_the_gate() {
        let reg = registry(11);
        let points = balanced_miss(&reg, reg.shape());
        let mut refitter = settled_refitter(&reg, &points);
        let model = reg.model("roberta-355m").unwrap();
        let nudged = PerfParams {
            k_const: model.params.k_const * (1.0 + 1e-9),
            ..model.params
        };
        reg.insert(ThroughputModel::new(
            model.spec.clone(),
            nudged,
            model.env,
            *reg.shape(),
        ));
        let (plan, placement, t) = &points[1];
        refitter.observe(&obs(plan, placement, *t, 1.0));
        let stats = refitter.stats();
        assert_eq!((stats.settled, stats.attempts), (0, 2));
    }

    #[test]
    fn a_publish_rearms_the_gate() {
        let reg = registry(11);
        let shape = *reg.shape();
        let mut refitter = RegistryRefitter::new(Arc::clone(&reg), RefitConfig::default());
        let drifted: Vec<_> = configs(&shape)
            .into_iter()
            .map(|(plan, placement)| {
                let t = drifted_iter_time(&reg, &plan, &placement);
                (plan, placement, t)
            })
            .collect();
        let mut published = false;
        for (plan, placement, t) in &drifted {
            published = refitter.observe(&obs(plan, placement, *t, 1.0)).is_some();
            if published {
                break;
            }
        }
        assert!(published, "40% drift must publish");
        // The window is unchanged, but it has never been judged under the
        // published parameters: the gate runs again.
        let (plan, placement, t) = &drifted[0];
        refitter.observe(&obs(plan, placement, *t, 1.0));
        assert_eq!(refitter.stats().settled, 0);
    }

    #[test]
    fn refits_are_deterministic() {
        let run = || {
            let reg = registry(11);
            let shape = *reg.shape();
            let mut refitter = RegistryRefitter::new(Arc::clone(&reg), RefitConfig::default());
            let mut outcomes = Vec::new();
            for (plan, placement) in configs(&shape) {
                let t = drifted_iter_time(&reg, &plan, &placement);
                if let Some(o) = refitter.observe(&obs(&plan, &placement, t, 1.0)) {
                    outcomes.push(o);
                }
            }
            let model = reg.model("roberta-355m").unwrap();
            (outcomes, model.params.to_vec().map(f64::to_bits))
        };
        let (a, pa) = run();
        let (b, pb) = run();
        assert_eq!(a, b);
        assert_eq!(pa, pb, "refit parameters must be bit-identical");
    }

    #[test]
    fn config_env_matches_cluster_env() {
        // envelope_shift / max_rel_error read env from the model itself;
        // sanity-check it equals the registry's.
        let reg = registry(11);
        let model = reg.model("roberta-355m").unwrap();
        assert_eq!(&model.env, reg.env());
        let _ = ClusterEnv::a800(); // keep the import honest
    }
}
