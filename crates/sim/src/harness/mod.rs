//! The **scenario harness**: one shared path from "a description of an
//! experiment" to "an engine that ran it".
//!
//! Before this module existed, the CLI's `run` and `compare` subcommands,
//! every `exp_*` regenerator and every integration test wired the same
//! five pieces together by hand: oracle, cluster, engine config, fault
//! plan, scheduler. The harness makes that wiring declarative:
//!
//! * [`ScenarioSpec`] — a pure-data description of one experiment cell
//!   (trace kind, job count, load factor, large-model fraction, seed,
//!   cluster size, chaos knobs, online refit).
//! * [`ScenarioBackend`] — the two construction hooks `rubick-sim` cannot
//!   provide itself without a dependency cycle: policies live in
//!   `rubick-core` and traces in `rubick-trace`, both of which *depend on*
//!   this crate, so callers inject them.
//! * [`run_scenario`] / [`run_scenario_with`] — build the engine the one
//!   canonical way and run it, returning a [`ScenarioOutcome`].
//!
//! The [`grid`] submodule parses declarative sweep specs (a parameter
//! grid in a small TOML subset) into ordered lists of scenarios, and
//! [`sweep`] executes those lists across worker threads with
//! byte-deterministic output. See `DESIGN.md` §12.

pub mod baseline;
pub mod grid;
pub mod sweep;

use crate::cluster::Cluster;
use crate::engine::{Engine, EngineConfig};
use crate::job::JobSpec;
use crate::metrics::SimReport;
use crate::refit::RefitHook;
use crate::scheduler::Scheduler;
use crate::tenant::Tenant;
use rubick_chaos::{ChaosConfig, FaultPlan};
use rubick_model::NodeShape;
use rubick_obs::{EventSink, FanoutSink, FaultMetricsSink};
use rubick_testbed::TestbedOracle;

/// Which of the paper's scenario traces a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceKind {
    /// Base trace: random feasible initial plans (Table 4 "Base").
    #[default]
    Base,
    /// Best-plan trace: best initial plans (Table 4 "BP").
    Bp,
    /// Multi-tenant trace: guaranteed vs. best-effort (Table 4 "MT").
    Mt,
}

impl TraceKind {
    /// Parses the CLI/spec spelling (`base|bp|mt`).
    ///
    /// # Errors
    ///
    /// Names the unknown kind and lists the valid ones.
    pub fn parse(s: &str) -> Result<TraceKind, String> {
        match s {
            "base" => Ok(TraceKind::Base),
            "bp" => Ok(TraceKind::Bp),
            "mt" => Ok(TraceKind::Mt),
            other => Err(format!("unknown trace '{other}' (base|bp|mt)")),
        }
    }

    /// The canonical spelling used in specs and sweep output rows.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Base => "base",
            TraceKind::Bp => "bp",
            TraceKind::Mt => "mt",
        }
    }
}

/// Random-fault knobs a scenario can enable (the sweepable subset of
/// [`ChaosConfig`]; scripted scenario files stay a CLI concern).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosKnobs {
    /// Expected node failures per node per hour (Poisson arrivals).
    pub failure_rate_per_hour: f64,
    /// Seed for all fault randomness (independent of the oracle seed).
    pub seed: u64,
}

impl ChaosKnobs {
    fn to_config(&self) -> ChaosConfig {
        ChaosConfig {
            seed: self.seed,
            node_failure_rate_per_hour: self.failure_rate_per_hour,
            ..ChaosConfig::default()
        }
    }
}

/// A pure-data description of one experiment: everything needed to
/// reproduce a simulation except the policy and trace constructors
/// (injected via [`ScenarioBackend`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scheduler name, resolved by the backend (e.g. `rubick`, `sia`).
    pub scheduler: String,
    /// Which scenario trace to generate.
    pub trace: TraceKind,
    /// Number of jobs at load 1.0 (the paper's down-sample: 406).
    pub jobs: usize,
    /// Load multiplier (Fig. 10 sweeps this).
    pub load: f64,
    /// Override of the large-model fraction (Fig. 11 sweeps this); when
    /// set, the workload is the large-model-mix trace regardless of
    /// [`ScenarioSpec::trace`], matching the CLI's `--large-frac` flag.
    pub large_frac: Option<f64>,
    /// Oracle *and* trace seed (the CLI's `--seed` semantics).
    pub seed: u64,
    /// Cluster size in nodes of 8×A800 each (the paper's testbed: 8).
    pub nodes: usize,
    /// Trace span, hours (the paper: busiest 12 h).
    pub duration_hours: f64,
    /// Random fault injection, when enabled.
    pub chaos: Option<ChaosKnobs>,
    /// Online model refitting: the material-change threshold (relative
    /// envelope shift that triggers a registry update), or `None` to keep
    /// the offline fit frozen for the whole run.
    pub refit: Option<f64>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            scheduler: "rubick".to_string(),
            trace: TraceKind::Base,
            jobs: 406,
            load: 1.0,
            large_frac: None,
            seed: 2025,
            nodes: 8,
            duration_hours: 12.0,
            chaos: None,
            refit: None,
        }
    }
}

impl ScenarioSpec {
    /// Checks every knob is in its valid range.
    ///
    /// # Errors
    ///
    /// A message naming the offending knob and value.
    pub fn validate(&self) -> Result<(), String> {
        if self.scheduler.is_empty() {
            return Err("scheduler name is empty".to_string());
        }
        if self.jobs == 0 {
            return Err("jobs must be at least 1".to_string());
        }
        if !(self.load > 0.0 && self.load.is_finite()) {
            return Err(format!("load must be a positive number, got {}", self.load));
        }
        if let Some(frac) = self.large_frac {
            if !(0.0..=1.0).contains(&frac) {
                return Err(format!("large_frac must be between 0 and 1, got {frac}"));
            }
        }
        if self.nodes == 0 {
            return Err("nodes must be at least 1".to_string());
        }
        if !(self.duration_hours > 0.0 && self.duration_hours.is_finite()) {
            return Err(format!(
                "duration_hours must be a positive number, got {}",
                self.duration_hours
            ));
        }
        if let Some(chaos) = &self.chaos {
            if !(chaos.failure_rate_per_hour >= 0.0 && chaos.failure_rate_per_hour.is_finite()) {
                return Err(format!(
                    "chaos_rate must be a non-negative number, got {}",
                    chaos.failure_rate_per_hour
                ));
            }
        }
        if let Some(threshold) = self.refit {
            if !(threshold > 0.0 && threshold.is_finite()) {
                return Err(format!(
                    "refit threshold must be a positive number, got {threshold}"
                ));
            }
        }
        Ok(())
    }

    /// The cluster this scenario runs on: `nodes` × 8 A800.
    pub fn cluster(&self) -> Cluster {
        Cluster::new(self.nodes, NodeShape::a800())
    }

    /// The engine configuration every scenario runs with.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig::default()
    }

    /// Compiles the spec's random-fault knobs into a deterministic
    /// [`FaultPlan`] (`None` when chaos is off or the rate is zero).
    ///
    /// # Errors
    ///
    /// Forwards [`rubick_chaos::ChaosError`] as a message.
    pub fn fault_plan(&self) -> Result<Option<FaultPlan>, String> {
        let Some(knobs) = &self.chaos else {
            return Ok(None);
        };
        if knobs.failure_rate_per_hour == 0.0 {
            return Ok(None);
        }
        let plan = FaultPlan::compile(
            &knobs.to_config(),
            self.nodes,
            self.engine_config().max_time,
        )
        .map_err(|e| format!("invalid chaos knobs: {e}"))?;
        Ok(Some(plan))
    }

    /// A short human-readable cell label for error messages and logs.
    pub fn label(&self) -> String {
        let mut s = format!(
            "{}/{} jobs={} load={}",
            self.trace.as_str(),
            self.scheduler,
            self.jobs,
            self.load
        );
        if let Some(frac) = self.large_frac {
            s.push_str(&format!(" large_frac={frac}"));
        }
        if self.nodes != 8 {
            s.push_str(&format!(" nodes={}", self.nodes));
        }
        if let Some(chaos) = &self.chaos {
            s.push_str(&format!(
                " chaos_rate={} chaos_seed={}",
                chaos.failure_rate_per_hour, chaos.seed
            ));
        }
        if let Some(threshold) = self.refit {
            s.push_str(&format!(" refit={threshold}"));
        }
        s.push_str(&format!(" seed={}", self.seed));
        s
    }
}

/// A freshly built scheduler plus, for refit-enabled specs, the online
/// refit hook wired to the same model registry.
pub type SchedulerWithRefit = (Box<dyn Scheduler>, Option<Box<dyn RefitHook>>);

/// The two constructors the harness cannot own: policies (`rubick-core`)
/// and workload traces (`rubick-trace`) live in crates that depend on
/// `rubick-sim`, so every caller injects them through this trait.
///
/// Implementations must be [`Sync`]: the sweep executor calls them from
/// worker threads. Per-cell state (e.g. a freshly `clone_fitted()` model
/// registry) belongs in the returned scheduler, not the backend.
pub trait ScenarioBackend: Sync {
    /// Builds the scheduler named by `spec.scheduler`, fitted for
    /// `spec.seed`'s oracle.
    ///
    /// # Errors
    ///
    /// A message naming the unknown scheduler (and the valid names).
    fn scheduler(&self, spec: &ScenarioSpec) -> Result<Box<dyn Scheduler>, String>;

    /// Builds the scheduler *and*, when `spec.refit` is set, the online
    /// refit hook that shares its model registry — only the backend can
    /// wire the two to the same registry, since both live behind this
    /// trait's construction boundary.
    ///
    /// The default implementation supports frozen-model runs only: it
    /// delegates to [`ScenarioBackend::scheduler`] and rejects specs with
    /// `refit` set, so a backend that never overrides this cannot
    /// silently ignore a requested refit.
    ///
    /// # Errors
    ///
    /// Backend construction errors, or `spec.refit` being set on a
    /// backend without refit support.
    fn scheduler_with_refit(&self, spec: &ScenarioSpec) -> Result<SchedulerWithRefit, String> {
        if spec.refit.is_some() {
            return Err(format!(
                "backend for scheduler '{}' does not support online refitting",
                spec.scheduler
            ));
        }
        Ok((self.scheduler(spec)?, None))
    }

    /// Generates the workload (jobs and tenants) for the spec.
    ///
    /// # Errors
    ///
    /// A message describing the invalid workload parameters.
    fn workload(
        &self,
        spec: &ScenarioSpec,
        oracle: &TestbedOracle,
    ) -> Result<(Vec<JobSpec>, Vec<Tenant>), String>;
}

/// Wall-clock cost of one sweep cell, captured only when the executor
/// runs timed ([`sweep::run_cells_with`] with `timings = true`). Timings
/// are machine-dependent by nature, so they never appear in goldens and
/// the byte-determinism gates run untimed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellTiming {
    /// Wall-clock for the whole cell (workload generation plus the full
    /// simulation), in milliseconds.
    pub wall_ms: f64,
    /// Mean cost per scheduling round: the cell's wall time divided by
    /// the report's round count, in nanoseconds.
    pub mean_round_ns: f64,
}

/// Everything a scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The spec that was run (so rows can be rendered without carrying
    /// the grid alongside the results).
    pub spec: ScenarioSpec,
    /// The full simulation report.
    pub report: SimReport,
    /// Fault-metric fold, present when the cell ran with chaos enabled.
    pub faults: Option<FaultMetricsSink>,
    /// Per-cell wall-clock cost, present only on timed sweep runs.
    pub timing: Option<CellTiming>,
}

/// Runs one scenario the canonical way (no extra sinks, chaos from the
/// spec's own knobs). See [`run_scenario_with`].
///
/// # Errors
///
/// Spec validation failures and backend construction errors.
pub fn run_scenario(
    spec: &ScenarioSpec,
    backend: &dyn ScenarioBackend,
) -> Result<ScenarioOutcome, String> {
    run_scenario_with(spec, backend, None, None)
}

/// Runs one scenario: oracle from the seed, cluster from the node count,
/// workload and scheduler from the backend, chaos compiled from the spec
/// (or overridden by `chaos`, the CLI's `--chaos <file>` path), every
/// event forwarded to `extra_sink` when given.
///
/// When chaos is active a [`FaultMetricsSink`] folds the same stream and
/// is returned in the outcome.
///
/// # Errors
///
/// Spec validation failures and backend construction errors.
pub fn run_scenario_with(
    spec: &ScenarioSpec,
    backend: &dyn ScenarioBackend,
    chaos: Option<FaultPlan>,
    extra_sink: Option<&mut dyn EventSink>,
) -> Result<ScenarioOutcome, String> {
    spec.validate()?;
    let oracle = TestbedOracle::new(spec.seed);
    let chaos = match chaos {
        Some(plan) => Some(plan),
        None => spec.fault_plan()?,
    };
    let (jobs, tenants) = backend.workload(spec, &oracle)?;
    let (scheduler, refit_hook) = backend.scheduler_with_refit(spec)?;
    let mut engine = Engine::new(
        &oracle,
        scheduler,
        spec.cluster(),
        tenants,
        spec.engine_config(),
    );
    if let Some(hook) = refit_hook {
        engine.set_refit_hook(hook);
    }
    let mut faults = chaos.as_ref().map(|_| FaultMetricsSink::new());
    if let Some(plan) = chaos {
        engine = engine.with_chaos(plan);
    }
    let report = match (faults.as_mut(), extra_sink) {
        (Some(metrics), Some(sink)) => {
            let mut fan = FanoutSink::new();
            fan.push(sink);
            fan.push(metrics);
            engine.run_with_sink(jobs, &mut fan)
        }
        (Some(metrics), None) => engine.run_with_sink(jobs, metrics),
        (None, Some(sink)) => engine.run_with_sink(jobs, sink),
        (None, None) => engine.run(jobs),
    };
    Ok(ScenarioOutcome {
        spec: spec.clone(),
        report,
        faults,
        timing: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_kind_round_trips() {
        for kind in [TraceKind::Base, TraceKind::Bp, TraceKind::Mt] {
            assert_eq!(TraceKind::parse(kind.as_str()), Ok(kind));
        }
        assert!(TraceKind::parse("philly")
            .unwrap_err()
            .contains("base|bp|mt"));
    }

    #[test]
    fn default_spec_is_the_paper_testbed() {
        let spec = ScenarioSpec::default();
        assert!(spec.validate().is_ok());
        assert_eq!(spec.cluster().total_capacity().gpus, 64);
        assert_eq!(spec.jobs, 406);
        assert!(spec.fault_plan().unwrap().is_none());
    }

    #[test]
    fn validation_names_the_offending_knob() {
        let cases: [(ScenarioSpec, &str); 6] = [
            (
                ScenarioSpec {
                    jobs: 0,
                    ..ScenarioSpec::default()
                },
                "jobs",
            ),
            (
                ScenarioSpec {
                    load: -1.0,
                    ..ScenarioSpec::default()
                },
                "load",
            ),
            (
                ScenarioSpec {
                    large_frac: Some(1.5),
                    ..ScenarioSpec::default()
                },
                "large_frac",
            ),
            (
                ScenarioSpec {
                    nodes: 0,
                    ..ScenarioSpec::default()
                },
                "nodes",
            ),
            (
                ScenarioSpec {
                    duration_hours: 0.0,
                    ..ScenarioSpec::default()
                },
                "duration_hours",
            ),
            (
                ScenarioSpec {
                    refit: Some(0.0),
                    ..ScenarioSpec::default()
                },
                "refit",
            ),
        ];
        for (spec, knob) in cases {
            let err = spec.validate().unwrap_err();
            assert!(err.contains(knob), "error '{err}' should name {knob}");
        }
    }

    #[test]
    fn zero_chaos_rate_compiles_to_no_plan() {
        let spec = ScenarioSpec {
            chaos: Some(ChaosKnobs {
                failure_rate_per_hour: 0.0,
                seed: 7,
            }),
            ..ScenarioSpec::default()
        };
        assert!(spec.fault_plan().unwrap().is_none());
        let with_rate = ScenarioSpec {
            chaos: Some(ChaosKnobs {
                failure_rate_per_hour: 0.05,
                seed: 7,
            }),
            ..ScenarioSpec::default()
        };
        assert!(with_rate.fault_plan().unwrap().is_some());
    }

    #[test]
    fn label_mentions_the_distinguishing_knobs() {
        let spec = ScenarioSpec {
            scheduler: "sia".into(),
            trace: TraceKind::Mt,
            nodes: 4,
            chaos: Some(ChaosKnobs {
                failure_rate_per_hour: 0.1,
                seed: 3,
            }),
            refit: Some(0.15),
            ..ScenarioSpec::default()
        };
        let label = spec.label();
        for needle in [
            "mt/sia",
            "nodes=4",
            "chaos_rate=0.1",
            "refit=0.15",
            "seed=2025",
        ] {
            assert!(label.contains(needle), "label '{label}' missing {needle}");
        }
    }

    #[test]
    fn default_backend_rejects_refit_specs() {
        struct Frozen;
        impl ScenarioBackend for Frozen {
            fn scheduler(&self, _spec: &ScenarioSpec) -> Result<Box<dyn Scheduler>, String> {
                Err("unused".to_string())
            }
            fn workload(
                &self,
                _spec: &ScenarioSpec,
                _oracle: &TestbedOracle,
            ) -> Result<(Vec<JobSpec>, Vec<Tenant>), String> {
                Err("unused".to_string())
            }
        }
        let spec = ScenarioSpec {
            refit: Some(0.2),
            ..ScenarioSpec::default()
        };
        let err = match Frozen.scheduler_with_refit(&spec) {
            Ok(_) => panic!("refit spec should be rejected"),
            Err(e) => e,
        };
        assert!(err.contains("refitting"), "{err}");
    }
}
