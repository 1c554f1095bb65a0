//! Shared helpers for the experiment regenerators (`src/bin/exp_*.rs`) and
//! the Criterion benches, plus [`ZooBackend`]: the one
//! [`ScenarioBackend`] over the real policies and traces, used by the
//! CLI, the sweep tests and the Table 4 / Fig. 10 / Fig. 11 printers.
//!
//! One binary per paper table/figure; see `DESIGN.md` for the experiment
//! index and `EXPERIMENTS.md` for paper-vs-measured results.

pub mod table2;

use rubick_core::{
    rubick_e, rubick_n, rubick_r, AntManScheduler, EqualShareScheduler, ModelRegistry,
    RubickScheduler, SiaScheduler, SynergyScheduler,
};
use rubick_model::{ModelError, ModelSpec};
use rubick_refit::{RefitConfig, RegistryRefitter};
use rubick_sim::harness::grid::SweepSpec;
use rubick_sim::harness::sweep::run_cells;
use rubick_sim::{
    JobSpec, RefitHook, ScenarioBackend, ScenarioOutcome, ScenarioSpec, Scheduler,
    SchedulerWithRefit, Tenant, TraceKind,
};
use rubick_testbed::TestbedOracle;
use rubick_trace::{
    best_plan_trace, generate_base, multi_tenant_trace, with_large_model_fraction, TraceConfig,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The standard oracle seed used by every experiment (deterministic runs).
pub const EXPERIMENT_SEED: u64 = 2025;

/// The standard testbed for all experiments: 8×8 A800, seed 2025.
pub fn std_oracle() -> TestbedOracle {
    TestbedOracle::new(EXPERIMENT_SEED)
}

/// Profiles and fits the full 7-model zoo (phase ① for every model type).
///
/// # Errors
///
/// Forwards profiling failures from [`ModelRegistry::from_oracle`].
pub fn build_registry(oracle: &TestbedOracle) -> Result<Arc<ModelRegistry>, ModelError> {
    Ok(Arc::new(ModelRegistry::from_oracle(
        oracle,
        &ModelSpec::zoo(),
    )?))
}

/// Every scheduler name [`scheduler_by_name`] accepts, in the canonical
/// listing order.
pub const SCHEDULER_NAMES: [&str; 8] = [
    "rubick", "rubick-e", "rubick-r", "rubick-n", "sia", "synergy", "antman", "equal",
];

/// Instantiates a scheduler by name over `registry`.
///
/// # Errors
///
/// Names the unknown scheduler and lists [`SCHEDULER_NAMES`].
pub fn scheduler_by_name(
    name: &str,
    registry: &Arc<ModelRegistry>,
) -> Result<Box<dyn Scheduler>, String> {
    Ok(match name {
        "rubick" => Box::new(RubickScheduler::new(Arc::clone(registry))),
        "rubick-e" => Box::new(rubick_e(Arc::clone(registry))),
        "rubick-r" => Box::new(rubick_r(Arc::clone(registry))),
        "rubick-n" => Box::new(rubick_n(Arc::clone(registry))),
        "sia" => Box::new(SiaScheduler::new(Arc::clone(registry))),
        "synergy" => Box::new(SynergyScheduler::new(Arc::clone(registry))),
        "antman" => Box::new(AntManScheduler::new()),
        "equal" => Box::new(EqualShareScheduler::new(Arc::clone(registry))),
        other => {
            return Err(format!(
                "unknown scheduler '{other}' ({})",
                SCHEDULER_NAMES.join("|")
            ))
        }
    })
}

/// Generates the spec's workload: the trace kind's jobs (or the
/// large-model mix when `large_frac` is set) and, for `mt`, its tenants.
pub fn workload(spec: &ScenarioSpec, oracle: &TestbedOracle) -> (Vec<JobSpec>, Vec<Tenant>) {
    let config = TraceConfig {
        seed: spec.seed,
        base_jobs: spec.jobs,
        load_factor: spec.load,
        duration_hours: spec.duration_hours,
        cluster_gpus: spec.cluster().total_capacity().gpus,
        ..TraceConfig::default()
    };
    let (mut jobs, tenants) = match spec.trace {
        TraceKind::Base => (generate_base(&config, oracle), vec![]),
        TraceKind::Bp => (best_plan_trace(&config, oracle), vec![]),
        TraceKind::Mt => multi_tenant_trace(&config, oracle),
    };
    if let Some(frac) = spec.large_frac {
        jobs = with_large_model_fraction(&config, oracle, frac);
    }
    (jobs, tenants)
}

/// Builds a policy from a freshly copied registry (see
/// [`ZooBackend::variant`]).
type PolicyBuilder = Box<dyn Fn(Arc<ModelRegistry>) -> Box<dyn Scheduler> + Send + Sync>;

/// The [`ScenarioBackend`] over the real policies (`rubick-core`) and
/// traces (`rubick-trace`).
///
/// The model zoo is profiled **once per distinct oracle seed** in
/// [`ZooBackend::prepare`]; each scheduler construction then deep-copies
/// its registry via [`ModelRegistry::clone_fitted`], so online refit
/// state cannot leak between cells or policies while the profiling pass
/// is never repeated.
pub struct ZooBackend {
    registries: BTreeMap<u64, Arc<ModelRegistry>>,
    variant: Option<PolicyBuilder>,
}

impl ZooBackend {
    /// Profiles the model zoo for every distinct seed in `seeds`.
    ///
    /// # Errors
    ///
    /// Forwards profiling failures from [`ModelRegistry::from_oracle`].
    pub fn prepare<I: IntoIterator<Item = u64>>(seeds: I) -> Result<ZooBackend, ModelError> {
        let mut registries = BTreeMap::new();
        for seed in seeds {
            if let std::collections::btree_map::Entry::Vacant(slot) = registries.entry(seed) {
                slot.insert(build_registry(&TestbedOracle::new(seed))?);
            }
        }
        Ok(ZooBackend {
            registries,
            variant: None,
        })
    }

    /// The profiled (pristine) registry for `seed`.
    ///
    /// # Errors
    ///
    /// When `seed` was not passed to [`ZooBackend::prepare`].
    pub fn registry(&self, seed: u64) -> Result<&Arc<ModelRegistry>, String> {
        self.registries
            .get(&seed)
            .ok_or_else(|| format!("internal error: no profiled registry for seed {seed}"))
    }

    /// A backend sharing these profiled registries whose scheduler is
    /// `build` instead of the spec's named policy — for ablations over a
    /// knob no scheduler name spells (a threshold, a backfill window).
    pub fn variant(
        &self,
        build: impl Fn(Arc<ModelRegistry>) -> Box<dyn Scheduler> + Send + Sync + 'static,
    ) -> ZooBackend {
        ZooBackend {
            registries: self.registries.clone(),
            variant: Some(Box::new(build)),
        }
    }

    /// The spec's scheduler over a fresh deep copy of its seed's registry,
    /// returned alongside that copy.
    fn policy(
        &self,
        spec: &ScenarioSpec,
    ) -> Result<(Box<dyn Scheduler>, Arc<ModelRegistry>), String> {
        let registry = Arc::new(self.registry(spec.seed)?.clone_fitted());
        let scheduler = match &self.variant {
            Some(build) => build(Arc::clone(&registry)),
            None => scheduler_by_name(&spec.scheduler, &registry)?,
        };
        Ok((scheduler, registry))
    }
}

impl ScenarioBackend for ZooBackend {
    fn scheduler(&self, spec: &ScenarioSpec) -> Result<Box<dyn Scheduler>, String> {
        Ok(self.policy(spec)?.0)
    }

    fn scheduler_with_refit(&self, spec: &ScenarioSpec) -> Result<SchedulerWithRefit, String> {
        // One deep copy shared by the scheduler and the refitter: a
        // material refit bumps the copy's version, which the scheduler's
        // epoch path sees next round — without ever touching the pristine
        // profiled registry other cells clone from.
        let (scheduler, registry) = self.policy(spec)?;
        let hook = spec.refit.map(|threshold| {
            Box::new(RegistryRefitter::new(
                registry,
                RefitConfig::with_threshold(threshold),
            )) as Box<dyn RefitHook>
        });
        Ok((scheduler, hook))
    }

    fn workload(
        &self,
        spec: &ScenarioSpec,
        oracle: &TestbedOracle,
    ) -> Result<(Vec<JobSpec>, Vec<Tenant>), String> {
        Ok(workload(spec, oracle))
    }
}

/// Runs a committed sweep spec (the printers `include_str!` theirs from
/// `examples/sweeps/`) cell by cell, returning the profiled backend with
/// the outcomes in grid order.
///
/// # Panics
///
/// On an invalid spec or a failing cell: the specs are committed and
/// tested, so either is a bug.
pub fn run_sweep(text: &str) -> (ZooBackend, Vec<ScenarioOutcome>) {
    let cells = SweepSpec::parse(text)
        .and_then(|spec| spec.expand())
        .expect("committed sweep spec expands");
    let backend = ZooBackend::prepare(cells.iter().map(|c| c.seed)).expect("zoo profiling");
    let outcomes = run_cells(&cells, &backend, None).expect("committed sweep runs");
    (backend, outcomes)
}

/// Seconds → hours.
pub fn hours(secs: f64) -> f64 {
    secs / 3600.0
}

/// Formats `value (ratio×)` against a reference (the Table 4 style).
pub fn with_ratio(value: f64, reference: f64) -> String {
    if reference > 0.0 {
        format!("{value:.2} ({:.2}x)", value / reference)
    } else {
        format!("{value:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formatting() {
        assert_eq!(with_ratio(2.0, 1.0), "2.00 (2.00x)");
        assert_eq!(with_ratio(2.0, 0.0), "2.00");
    }

    #[test]
    fn std_oracle_is_deterministic() {
        assert_eq!(std_oracle().seed(), EXPERIMENT_SEED);
    }

    #[test]
    fn unknown_scheduler_error_lists_every_name() {
        let registry = build_registry(&std_oracle()).unwrap();
        let err = scheduler_by_name("nope", &registry).err().unwrap();
        assert!(err.contains(&SCHEDULER_NAMES.join("|")), "{err}");
    }

    /// Each scenario schedules on its own registry copy, so no two threads
    /// ever fill one curve cache.
    #[test]
    fn scenarios_get_isolated_registries() {
        let spec = ScenarioSpec::default();
        let backend = ZooBackend::prepare([spec.seed]).unwrap();
        let (_, a) = backend.policy(&spec).unwrap();
        let (_, b) = backend.policy(&spec).unwrap();
        let pristine = backend.registry(spec.seed).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, pristine));
        assert!(!Arc::ptr_eq(&b, pristine));
    }
}
