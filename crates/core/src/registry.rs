//! Shared fitted performance models per model type.
//!
//! Rubick fits one performance model per *model type* and reuses it across
//! all jobs of that type and across reconfigurations (§3). The registry is
//! the policy-side store of those models, together with the sensitivity
//! curve cache of §5.2.

use rubick_model::prelude::*;
use rubick_testbed::{profile_and_fit, TestbedOracle};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Fitted models per model type, plus shared sensitivity-curve cache.
///
/// ```
/// use rubick_core::ModelRegistry;
/// use rubick_model::ModelSpec;
/// use rubick_testbed::TestbedOracle;
///
/// # fn main() -> Result<(), rubick_model::ModelError> {
/// let oracle = TestbedOracle::new(0);
/// let registry = ModelRegistry::from_oracle(&oracle, &[ModelSpec::roberta_large()])?;
/// assert!(registry.model("roberta-355m").is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Arc<ThroughputModel>>>,
    curves: CurveCache,
    /// Models [`ModelRegistry::insert`] replaced (refits from any path).
    refits: AtomicUsize,
    /// Monotone counter bumped on every model insert/replace; incremental
    /// schedulers fingerprint it to detect that *any* fitted model (and
    /// hence any sensitivity curve or loss slope) may have changed.
    version: AtomicU64,
    env: ClusterEnv,
    shape: NodeShape,
    /// Total simulated profiling wall-clock spent building this registry,
    /// seconds (§7.3 reports ~210 s per model).
    pub profiling_seconds: f64,
}

impl ModelRegistry {
    /// An empty registry for a given environment.
    pub fn new(env: ClusterEnv, shape: NodeShape) -> Self {
        ModelRegistry {
            models: RwLock::new(HashMap::new()),
            curves: CurveCache::new(),
            refits: AtomicUsize::new(0),
            version: AtomicU64::new(0),
            env,
            shape,
            profiling_seconds: 0.0,
        }
    }

    /// Profiles and fits every listed model type against the testbed —
    /// phase ① of the scheduling workflow (Fig. 4).
    ///
    /// # Errors
    ///
    /// Propagates profiling/fitting failures (e.g. a model with no feasible
    /// plan anywhere).
    pub fn from_oracle(oracle: &TestbedOracle, specs: &[ModelSpec]) -> Result<Self, ModelError> {
        let mut registry = ModelRegistry::new(*oracle.env(), *oracle.shape());
        for spec in specs {
            let (model, report) = profile_and_fit(oracle, spec, spec.default_batch)?;
            registry.profiling_seconds += report.wall_seconds;
            registry
                .models
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(spec.name.clone(), Arc::new(model));
        }
        Ok(registry)
    }

    /// Number of models [`ModelRegistry::insert`] has replaced so far —
    /// online refits published by any caller, e.g. the engine's refit hook.
    pub fn refit_count(&self) -> usize {
        self.refits.load(Ordering::Relaxed)
    }

    /// Inserts or replaces a fitted model.
    pub fn insert(&self, model: ThroughputModel) {
        let name = model.spec.name.clone();
        self.curves.invalidate_model(&name);
        let replaced = self
            .models
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name, Arc::new(model));
        if replaced.is_some() {
            self.refits.fetch_add(1, Ordering::Relaxed);
        }
        self.version.fetch_add(1, Ordering::Release);
    }

    /// The registry's model-content version: bumped on every
    /// [`ModelRegistry::insert`], whether it adds a model or refits one.
    /// Two reads returning the same value guarantee every fitted model —
    /// and every curve derived from one — is unchanged between them.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// A deep, independent copy of the fitted state: models are cloned,
    /// the curve cache starts empty (it refills deterministically on
    /// demand) and the refit counter resets.
    ///
    /// This is how `compare` shares one profiling pass across scheduler
    /// threads: profile the zoo once, then hand each thread its own
    /// registry so online refits stay isolated per scheduler.
    pub fn clone_fitted(&self) -> Self {
        ModelRegistry {
            models: RwLock::new(
                self.models
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            ),
            curves: CurveCache::new(),
            refits: AtomicUsize::new(0),
            version: AtomicU64::new(self.version.load(Ordering::Acquire)),
            env: self.env,
            shape: self.shape,
            profiling_seconds: self.profiling_seconds,
        }
    }

    /// Looks up the fitted model for a model type.
    pub fn model(&self, name: &str) -> Option<Arc<ThroughputModel>> {
        self.models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Registered model-type names (sorted for determinism).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        v.sort();
        v
    }

    /// The cluster environment models were fitted in.
    pub fn env(&self) -> &ClusterEnv {
        &self.env
    }

    /// The node shape of the cluster.
    pub fn shape(&self) -> &NodeShape {
        &self.shape
    }

    /// Cached GPU sensitivity curve for a model type under a plan-search
    /// mode. Full-search and restricted (DP-rescale, fixed-plan) curves
    /// share the one cache, so [`ModelRegistry::insert`] evicts both.
    /// Jobs of one model type and batch share a DP-rescale curve when
    /// their initial plans have the same plan structure, DP degree
    /// excluded: rescaling sets the DP degree from the GPU amount and
    /// never reads the initial one ([`PlanSearch::curve_key`]).
    ///
    /// Returns `None` when the model type was never registered.
    pub fn gpu_curve(
        &self,
        name: &str,
        search: &PlanSearch,
        global_batch: u32,
        max_gpus: u32,
    ) -> Option<Arc<SensitivityCurve>> {
        let model = self.model(name)?;
        Some(
            self.curves
                .gpu_curve(&model, search, global_batch, max_gpus),
        )
    }

    /// Pre-computes all GPU curves (the "prior to scheduling"
    /// optimization of §5.2).
    pub fn warm_curves(&self, max_gpus: u32, batch_of: impl Fn(&ModelSpec) -> u32) {
        let models: Vec<ThroughputModel> = self
            .models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(|m| (**m).clone())
            .collect();
        self.curves
            .precompute_gpu_curves(&models, |m| batch_of(&m.spec), max_gpus);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_and_serves_curves() {
        let oracle = TestbedOracle::new(5);
        let registry =
            ModelRegistry::from_oracle(&oracle, &[ModelSpec::vit_base(), ModelSpec::bert_large()])
                .unwrap();
        assert_eq!(registry.names(), vec!["bert-336m", "vit-86m"]);
        assert!(registry.profiling_seconds >= 2.0 * 210.0);
        let curve = registry
            .gpu_curve("vit-86m", &PlanSearch::Full, 128, 8)
            .unwrap();
        assert!(curve.value(8) > curve.value(1));
        assert!(registry
            .gpu_curve("unknown", &PlanSearch::Full, 16, 8)
            .is_none());
    }

    #[test]
    fn insert_replaces_and_invalidates() {
        let oracle = TestbedOracle::new(5);
        let registry = ModelRegistry::from_oracle(&oracle, &[ModelSpec::vit_base()]).unwrap();
        let _ = registry
            .gpu_curve("vit-86m", &PlanSearch::Full, 128, 8)
            .unwrap();
        let replacement = ThroughputModel::new(
            ModelSpec::vit_base(),
            PerfParams::default(),
            *oracle.env(),
            *oracle.shape(),
        );
        registry.insert(replacement);
        // Fresh curve is served from the new model (no stale cache entry).
        let again = registry
            .gpu_curve("vit-86m", &PlanSearch::Full, 128, 8)
            .unwrap();
        assert!(again.value(8) > 0.0);
    }

    #[test]
    fn insert_evicts_restricted_curves() {
        let oracle = TestbedOracle::new(5);
        let registry = ModelRegistry::from_oracle(&oracle, &[ModelSpec::vit_base()]).unwrap();
        let search = PlanSearch::DpScale(ExecutionPlan::dp(1));
        let before = registry.gpu_curve("vit-86m", &search, 128, 8).unwrap();
        let refit = ThroughputModel::new(
            ModelSpec::vit_base(),
            PerfParams::default(),
            *oracle.env(),
            *oracle.shape(),
        );
        let expected = search.gpu_curve(&refit, 128, 8);
        registry.insert(refit);
        let after = registry.gpu_curve("vit-86m", &search, 128, 8).unwrap();
        assert_ne!(
            after.value(8),
            before.value(8),
            "refit must change the curve"
        );
        assert_eq!(*after, expected);
    }

    #[test]
    fn clone_fitted_serves_from_an_empty_cache() {
        let oracle = TestbedOracle::new(5);
        let registry = ModelRegistry::from_oracle(&oracle, &[ModelSpec::vit_base()]).unwrap();
        let search = PlanSearch::Fixed(ExecutionPlan::dp(4));
        let original = registry.gpu_curve("vit-86m", &search, 128, 8).unwrap();
        registry
            .gpu_curve("vit-86m", &PlanSearch::Full, 128, 8)
            .unwrap();
        let snapshot = registry.clone_fitted();
        assert!(snapshot.curves.is_empty());
        let served = snapshot.gpu_curve("vit-86m", &search, 128, 8).unwrap();
        assert!(!Arc::ptr_eq(&served, &original));
        assert_eq!(served, original);
        assert_eq!(snapshot.curves.len(), 1);
    }

    #[test]
    fn version_bumps_on_insert_and_clone_is_independent() {
        let oracle = TestbedOracle::new(5);
        let registry = ModelRegistry::from_oracle(&oracle, &[ModelSpec::vit_base()]).unwrap();
        let v0 = registry.version();
        let snapshot = registry.clone_fitted();
        assert_eq!(snapshot.version(), v0);
        assert_eq!(snapshot.names(), registry.names());
        assert_eq!(snapshot.profiling_seconds, registry.profiling_seconds);
        registry.insert(ThroughputModel::new(
            ModelSpec::vit_base(),
            PerfParams::default(),
            *oracle.env(),
            *oracle.shape(),
        ));
        assert_eq!(registry.version(), v0 + 1);
        assert_eq!(registry.refit_count(), 1);
        // The clone is unaffected by the original's mutation, and serves
        // curves from its own (empty, refilled-on-demand) cache.
        assert_eq!(snapshot.version(), v0);
        assert!(
            snapshot
                .gpu_curve("vit-86m", &PlanSearch::Full, 128, 8)
                .unwrap()
                .value(8)
                > 0.0
        );
        assert_eq!(snapshot.refit_count(), 0);
    }
}
