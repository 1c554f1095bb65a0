//! Cached feasible-plan sets.
//!
//! The feasible plan list at one search point is a pure function of
//! `(model, gpus, global_batch, node shape)` — the enumeration's
//! validate + memory gate runs against the *packed* placement, which is
//! itself derived from `(gpus, shape)`, and ignores the cluster environment
//! (see [`MemoryEstimator::check_feasible`](crate::memory::MemoryEstimator::check_feasible)).
//! `minRes`, the policy round and the baselines all hit the same points
//! repeatedly, so [`PlanSetCache`] memoizes the enumerated list in an
//! `RwLock<HashMap>`: the process-wide [`PlanSetCache::global`] is shared by
//! every thread, sweep cell workers and `compare`'s schedulers included.
//!
//! Unlike curves, plan sets never depend on the fitted [`PerfParams`]
//! (crate::perf::PerfParams), so an online refit does **not** invalidate
//! them — only a change of model structure or hardware shape would, and both
//! are part of the key.

use crate::env::ClusterEnv;
use crate::plan::{ExecutionPlan, PlanEnumerator};
use crate::resources::NodeShape;
use crate::spec::ModelSpec;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// Cache key: every input the enumeration depends on, with float fields
/// stored as IEEE-754 bit patterns so the key is `Eq + Hash`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanSetKey {
    model: String,
    params_bits: u64,
    layers: u32,
    hidden: u32,
    seq_len: u32,
    gpus: u32,
    batch: u32,
    shape_gpus: u32,
    shape_cpus: u32,
    shape_mem_bits: u64,
    shape_gpu_mem_bits: u64,
}

impl PlanSetKey {
    fn new(spec: &ModelSpec, gpus: u32, global_batch: u32, shape: &NodeShape) -> Self {
        PlanSetKey {
            model: spec.name.clone(),
            params_bits: spec.params.to_bits(),
            layers: spec.layers,
            hidden: spec.hidden,
            seq_len: spec.seq_len,
            gpus,
            batch: global_batch,
            shape_gpus: shape.gpus,
            shape_cpus: shape.cpus,
            shape_mem_bits: shape.mem_gb.to_bits(),
            shape_gpu_mem_bits: shape.gpu_mem_gb.to_bits(),
        }
    }
}

/// A thread-safe cache of enumerated feasible-plan sets.
///
/// Entries are shared `Arc<[ExecutionPlan]>` slices: a cache hit is one
/// read-lock acquisition and an `Arc` clone — no enumeration, no `Vec`.
/// Unlike a registry's [`CurveCache`](crate::curve::CurveCache), the
/// [`global`](PlanSetCache::global) instance really is filled by several
/// threads at once, hence the double-checked insert in
/// [`plans`](PlanSetCache::plans).
///
/// ```
/// use rubick_model::prelude::*;
/// let cache = PlanSetCache::new();
/// let spec = ModelSpec::gpt2_xl();
/// let (shape, env) = (NodeShape::a800(), ClusterEnv::a800());
/// let a = cache.plans(&spec, 8, 16, &shape, &env);
/// let b = cache.plans(&spec, 8, 16, &shape, &env);
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(&a[..], &enumerate_plans(&spec, 8, 16, &shape, &env)[..]);
/// ```
#[must_use = "a cache that is never queried does nothing"]
#[derive(Debug, Default)]
pub struct PlanSetCache {
    sets: RwLock<HashMap<PlanSetKey, Arc<[ExecutionPlan]>>>,
}

impl PlanSetCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PlanSetCache::default()
    }

    /// The process-wide shared cache used by
    /// [`ThroughputModel::best_plan`](crate::perf::ThroughputModel::best_plan).
    pub fn global() -> &'static PlanSetCache {
        static GLOBAL: OnceLock<PlanSetCache> = OnceLock::new();
        GLOBAL.get_or_init(PlanSetCache::new)
    }

    /// Number of cached plan sets.
    pub fn len(&self) -> usize {
        self.sets
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.sets
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty()
    }

    /// Drops every cached set (test/bench hygiene; never needed for
    /// correctness since all enumeration inputs are part of the key).
    pub fn clear(&self) {
        self.sets
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Returns the feasible plan set for `spec` on exactly `gpus` GPUs,
    /// enumerating and caching it on first use.
    ///
    /// Identical to collecting [`PlanEnumerator`] (same plans, same order).
    /// Uses a double-checked insert: on a miss the set is computed under the
    /// write lock after re-checking, so concurrent callers never enumerate
    /// the same point twice.
    pub fn plans(
        &self,
        spec: &ModelSpec,
        gpus: u32,
        global_batch: u32,
        shape: &NodeShape,
        env: &ClusterEnv,
    ) -> Arc<[ExecutionPlan]> {
        let key = PlanSetKey::new(spec, gpus, global_batch, shape);
        if let Some(set) = self
            .sets
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return Arc::clone(set);
        }
        let mut sets = self.sets.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(set) = sets.get(&key) {
            return Arc::clone(set);
        }
        let set: Arc<[ExecutionPlan]> =
            PlanEnumerator::new(spec, gpus, global_batch, shape, env).collect();
        sets.insert(key, Arc::clone(&set));
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::enumerate_plans;

    fn ctx() -> (NodeShape, ClusterEnv) {
        (NodeShape::a800(), ClusterEnv::a800())
    }

    #[test]
    fn hit_returns_same_arc() {
        let (shape, env) = ctx();
        let cache = PlanSetCache::new();
        let spec = ModelSpec::gpt2_xl();
        let a = cache.plans(&spec, 8, 16, &shape, &env);
        let b = cache.plans(&spec, 8, 16, &shape, &env);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn matches_enumerate_plans() {
        let (shape, env) = ctx();
        let cache = PlanSetCache::new();
        for spec in ModelSpec::zoo() {
            for g in [0u32, 1, 3, 8, 16] {
                let cached = cache.plans(&spec, g, spec.default_batch, &shape, &env);
                let naive = enumerate_plans(&spec, g, spec.default_batch, &shape, &env);
                assert_eq!(&cached[..], &naive[..], "{} at {g} GPUs", spec.name);
            }
        }
    }

    #[test]
    fn distinct_points_get_distinct_entries() {
        let (shape, env) = ctx();
        let cache = PlanSetCache::new();
        let spec = ModelSpec::bert_large();
        cache.plans(&spec, 4, 32, &shape, &env);
        cache.plans(&spec, 8, 32, &shape, &env);
        cache.plans(&spec, 8, 64, &shape, &env);
        assert_eq!(cache.len(), 3);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_access_converges() {
        let (shape, env) = ctx();
        let cache = PlanSetCache::new();
        let spec = ModelSpec::t5_1b();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for g in 1..=8 {
                        cache.plans(&spec, g, 32, &shape, &env);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 8);
    }
}
