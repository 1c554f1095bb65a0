//! CLI subcommands.

pub mod compare;
pub mod plans;
pub mod profile;
pub mod run;
pub mod serve;
pub mod sweep;
pub mod trace;

use crate::args::Args;
use rubick_chaos::{ChaosConfig, FaultPlan};
use rubick_core::{
    rubick_e, rubick_n, rubick_r, AntManScheduler, EqualShareScheduler, ModelRegistry,
    RubickScheduler, SiaScheduler, SynergyScheduler,
};
use rubick_model::ModelSpec;
use rubick_refit::{RefitConfig, RegistryRefitter};
use rubick_sim::{
    JobSpec, RefitHook, ScenarioBackend, ScenarioSpec, Scheduler, SchedulerWithRefit, Tenant,
    TraceKind,
};
use rubick_testbed::TestbedOracle;
use rubick_trace::{
    best_plan_trace, generate_base, multi_tenant_trace, with_large_model_fraction, TraceConfig,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Boxed error type shared by all commands.
pub type CliError = Box<dyn std::error::Error>;

/// The oracle seed flag shared by every command.
pub fn oracle_from(args: &Args) -> Result<TestbedOracle, CliError> {
    Ok(TestbedOracle::new(args.parse_or("seed", 2025u64)?))
}

/// Resolves a zoo model name with a helpful error message.
pub fn model_from(args: &Args) -> Result<ModelSpec, CliError> {
    let name = args
        .get("model")
        .ok_or("--model is required (see `rubick help`)")?;
    ModelSpec::by_name(name).ok_or_else(|| {
        let names: Vec<String> = ModelSpec::zoo().into_iter().map(|m| m.name).collect();
        format!("unknown model '{name}'; available: {}", names.join(", ")).into()
    })
}

/// Builds the trace configuration from common flags.
pub fn trace_config_from(args: &Args) -> Result<TraceConfig, CliError> {
    let base_jobs: usize = args.parse_or("jobs", 406usize)?;
    if base_jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    let load_factor: f64 = args.parse_or("load", 1.0f64)?;
    if !(load_factor > 0.0 && load_factor.is_finite()) {
        return Err("--load must be a positive number".into());
    }
    Ok(TraceConfig {
        seed: args.parse_or("seed", 2025u64)?,
        base_jobs,
        load_factor,
        ..TraceConfig::default()
    })
}

/// Builds a [`ScenarioSpec`] from the flags shared by `run` and
/// `compare` (`--trace --jobs --load --large-frac --seed`),
/// preserving each flag's historical error message.
pub fn scenario_spec_from(args: &Args) -> Result<ScenarioSpec, CliError> {
    let jobs: usize = args.parse_or("jobs", 406usize)?;
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    let load: f64 = args.parse_or("load", 1.0f64)?;
    if !(load > 0.0 && load.is_finite()) {
        return Err("--load must be a positive number".into());
    }
    let large_frac = match args.get("large-frac") {
        None => None,
        Some(raw) => {
            let frac: f64 = raw
                .parse()
                .map_err(|_| format!("invalid --large-frac '{raw}'"))?;
            if !(0.0..=1.0).contains(&frac) {
                return Err("--large-frac must be between 0 and 1".into());
            }
            Some(frac)
        }
    };
    Ok(ScenarioSpec {
        scheduler: args.str_or("scheduler", "rubick"),
        trace: TraceKind::parse(&args.str_or("trace", "base"))?,
        jobs,
        load,
        large_frac,
        seed: args.parse_or("seed", 2025u64)?,
        refit: refit_from(args)?,
        ..ScenarioSpec::default()
    })
}

/// Resolves the `--refit` / `--refit-threshold` pair into the spec's
/// material-change threshold (`None` = frozen offline fit).
pub fn refit_from(args: &Args) -> Result<Option<f64>, CliError> {
    let threshold = match args.get("refit-threshold") {
        None => None,
        Some(raw) => {
            let t: f64 = raw
                .parse()
                .map_err(|_| format!("invalid --refit-threshold '{raw}'"))?;
            if !(t > 0.0 && t.is_finite()) {
                return Err("--refit-threshold must be a positive number".into());
            }
            Some(t)
        }
    };
    if !args.flag("refit") {
        if threshold.is_some() {
            return Err("--refit-threshold requires --refit".into());
        }
        return Ok(None);
    }
    Ok(Some(threshold.unwrap_or(RefitConfig::default().threshold)))
}

/// The CLI's [`ScenarioBackend`]: resolves scheduler names against
/// `rubick-core` and generates workloads from `rubick-trace`.
///
/// The model zoo is profiled **once per distinct oracle seed** in
/// [`CliBackend::prepare`]; each scheduler construction then deep-copies
/// its registry via [`ModelRegistry::clone_fitted`], so online refit
/// state cannot leak between cells or policies while the (slow)
/// profiling pass is never repeated.
pub struct CliBackend {
    registries: BTreeMap<u64, Arc<ModelRegistry>>,
}

impl CliBackend {
    /// Profiles the model zoo for every distinct seed in `seeds`.
    ///
    /// # Errors
    ///
    /// Forwards profiling failures from [`ModelRegistry::from_oracle`].
    pub fn prepare<I: IntoIterator<Item = u64>>(seeds: I) -> Result<CliBackend, CliError> {
        let mut registries = BTreeMap::new();
        for seed in seeds {
            if let std::collections::btree_map::Entry::Vacant(slot) = registries.entry(seed) {
                let oracle = TestbedOracle::new(seed);
                slot.insert(build_registry(&oracle)?);
            }
        }
        Ok(CliBackend { registries })
    }

    fn registry(&self, seed: u64) -> Result<&Arc<ModelRegistry>, String> {
        self.registries
            .get(&seed)
            .ok_or_else(|| format!("internal error: no profiled registry for seed {seed}"))
    }
}

impl ScenarioBackend for CliBackend {
    fn scheduler(&self, spec: &ScenarioSpec) -> Result<Box<dyn Scheduler>, String> {
        let registry = Arc::new(self.registry(spec.seed)?.clone_fitted());
        scheduler_by_name(&spec.scheduler, &registry).map_err(|e| e.to_string())
    }

    fn scheduler_with_refit(&self, spec: &ScenarioSpec) -> Result<SchedulerWithRefit, String> {
        // One deep copy shared by the scheduler and the refitter: a
        // material refit bumps the copy's version, which the scheduler's
        // epoch path sees next round — without ever touching the pristine
        // profiled registry other cells clone from.
        let registry = Arc::new(self.registry(spec.seed)?.clone_fitted());
        let scheduler = scheduler_by_name(&spec.scheduler, &registry).map_err(|e| e.to_string())?;
        let hook = spec.refit.map(|threshold| {
            Box::new(RegistryRefitter::new(
                Arc::clone(&registry),
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
        Ok((jobs, tenants))
    }
}

/// Every scheduler name [`scheduler_by_name`] accepts, in the canonical
/// listing order (also used for `sweep` pre-flight validation).
pub const SCHEDULER_NAMES: [&str; 8] = [
    "rubick", "rubick-e", "rubick-r", "rubick-n", "sia", "synergy", "antman", "equal",
];

/// Instantiates a scheduler by name (profiling the model zoo as needed).
pub fn scheduler_by_name(
    name: &str,
    registry: &Arc<ModelRegistry>,
) -> Result<Box<dyn Scheduler>, CliError> {
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
                "unknown scheduler '{other}' \
                 (rubick|rubick-e|rubick-r|rubick-n|sia|synergy|antman|equal)"
            )
            .into())
        }
    })
}

/// Compiles the optional `--chaos <file>` fault plan for a cluster of
/// `nodes` nodes and a simulation horizon of `horizon` seconds, with
/// `--chaos-seed` overriding the seed baked into the config file.
pub fn chaos_from(args: &Args, nodes: usize, horizon: f64) -> Result<Option<FaultPlan>, CliError> {
    let Some(path) = args.get("chaos") else {
        if args.get("chaos-seed").is_some() {
            return Err("--chaos-seed requires --chaos <config>".into());
        }
        return Ok(None);
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read chaos config '{path}': {e}"))?;
    let mut config =
        ChaosConfig::parse(&text).map_err(|e| format!("invalid chaos config '{path}': {e}"))?;
    if let Some(seed) = args.get("chaos-seed") {
        config.seed = seed
            .parse()
            .map_err(|_| format!("invalid --chaos-seed '{seed}': expected u64"))?;
    }
    let plan = FaultPlan::compile(&config, nodes, horizon)
        .map_err(|e| format!("invalid chaos config '{path}': {e}"))?;
    Ok(Some(plan))
}

/// Profiles the full zoo once (shared by run/compare).
pub fn build_registry(oracle: &TestbedOracle) -> Result<Arc<ModelRegistry>, CliError> {
    Ok(Arc::new(ModelRegistry::from_oracle(
        oracle,
        &ModelSpec::zoo(),
    )?))
}
