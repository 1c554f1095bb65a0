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
use rubick_model::ModelSpec;
use rubick_refit::RefitConfig;
use rubick_sim::{ScenarioSpec, TraceKind};
use rubick_testbed::TestbedOracle;

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

/// Builds a [`ScenarioSpec`] from the flags shared by `run`, `compare`
/// and `trace` (`--trace --jobs --load --large-frac --seed`),
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
    let spec = ScenarioSpec {
        scheduler: args.str_or("scheduler", "rubick"),
        trace: TraceKind::parse(&args.str_or("trace", "base"))?,
        jobs,
        load,
        large_frac,
        seed: args.parse_or("seed", 2025u64)?,
        refit: refit_from(args)?,
        ..ScenarioSpec::default()
    };
    spec.validate()?;
    Ok(spec)
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
