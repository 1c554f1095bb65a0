//! # rubick
//!
//! Umbrella crate for the reproduction of **"Rubick: Exploiting Job
//! Reconfigurability for Deep Learning Cluster Scheduling"** (MLSYS 2025).
//!
//! The workspace implements the complete system described by the paper:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`model`] | Analytic performance model (§4): execution plans, memory estimation, RMSLE fitting, sensitivity curves |
//! | [`testbed`] | Ground-truth oracle standing in for the 64-GPU A800 cluster, profiler, loss simulator |
//! | [`obs`] | Event spine: typed simulation events and pluggable sinks (JSONL, counters) |
//! | [`sim`] | Discrete-event cluster simulator: nodes, jobs, tenants, metrics |
//! | [`core`] | The Rubick policy (Algorithm 1), ablations (Rubick-E/R/N), baselines (Sia, Synergy, AntMan, equal-share) |
//! | [`trace`] | Philly-like synthetic trace generation (Base / BP / MT, load and model-mix sweeps) |
//!
//! ## Quickstart
//!
//! ```
//! use rubick::prelude::*;
//! # fn main() -> Result<(), rubick::model::ModelError> {
//! // 1. Stand up a (simulated) testbed and profile a model type.
//! let oracle = TestbedOracle::new(42);
//! let spec = ModelSpec::gpt2_xl();
//! let (perf_model, _report) = profile_and_fit(&oracle, &spec, 16)?;
//!
//! // 2. Ask for the best execution plan on 8 GPUs of one node.
//! let placement = Placement::single_node(8, 96, 1600.0);
//! let (plan, throughput) = perf_model.best_plan(16, &placement).expect("feasible");
//! println!("best 8-GPU plan: {plan} at {throughput:.1} samples/s");
//! # Ok(())
//! # }
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub use rubick_core as core;
pub use rubick_model as model;
pub use rubick_obs as obs;
pub use rubick_sim as sim;
pub use rubick_testbed as testbed;
pub use rubick_trace as trace;

/// One-stop import of the most common types across the workspace.
pub mod prelude {
    pub use rubick_core::{
        rubick_e, rubick_n, rubick_r, AntManScheduler, EqualShareScheduler, ModelRegistry,
        RubickConfig, RubickScheduler, SiaScheduler, SynergyScheduler,
    };
    pub use rubick_model::prelude::*;
    pub use rubick_sim::{
        Allocation, Cluster, Engine, EngineConfig, JobClass, JobSpec, SimReport, Tenant,
    };
    pub use rubick_testbed::{profile_and_fit, LossSimulator, TestbedOracle};
    pub use rubick_trace::{
        best_plan_trace, generate_base, multi_tenant_trace, with_large_model_fraction, TraceConfig,
    };
}
