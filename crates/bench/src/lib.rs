//! Shared helpers for the experiment regenerators (`src/bin/exp_*.rs`) and
//! the Criterion benches.
//!
//! One binary per paper table/figure; see `DESIGN.md` for the experiment
//! index and `EXPERIMENTS.md` for paper-vs-measured results.

pub mod table2;

use rubick_core::ModelRegistry;
use rubick_model::ModelSpec;
use rubick_sim::{Cluster, Engine, EngineConfig, JobSpec, Scheduler, SimReport, Tenant};
use rubick_testbed::TestbedOracle;
use std::sync::Arc;

/// The standard oracle seed used by every experiment (deterministic runs).
pub const EXPERIMENT_SEED: u64 = 2025;

/// The standard testbed for all experiments: 8×8 A800, seed 2025.
pub fn std_oracle() -> TestbedOracle {
    TestbedOracle::new(EXPERIMENT_SEED)
}

/// Profiles and fits the full 7-model zoo (phase ① for every model type).
pub fn build_registry(oracle: &TestbedOracle) -> Arc<ModelRegistry> {
    Arc::new(
        ModelRegistry::from_oracle(oracle, &ModelSpec::zoo())
            .expect("zoo profiling should succeed"),
    )
}

/// Runs a workload through a scheduler on the paper's 64-GPU testbed.
pub fn run_cluster_experiment(
    oracle: &TestbedOracle,
    scheduler: Box<dyn Scheduler + '_>,
    jobs: Vec<JobSpec>,
    tenants: Vec<Tenant>,
) -> SimReport {
    let mut engine = Engine::new(
        oracle,
        scheduler,
        Cluster::a800_testbed(),
        tenants,
        EngineConfig::default(),
    );
    engine.run(jobs)
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
}
