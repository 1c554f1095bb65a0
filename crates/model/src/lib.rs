//! # rubick-model
//!
//! The analytic **resource–performance model** for reconfigurable deep
//! learning training from the Rubick paper (MLSYS 2025), §4, together with
//! everything the model needs to be useful to a scheduler:
//!
//! * [`spec`] — transformer model descriptions ([`ModelSpec`]) and the
//!   seven-model zoo used throughout the paper's evaluation (Table 2).
//! * [`resources`] — multi-resource vectors ([`Resources`]) and node shapes.
//! * [`env`](mod@env) — cluster environment constants (`B_intra`, `B_inter`,
//!   `B_pcie`, GPU memory capacity).
//! * [`plan`] — execution plans: 3D parallelism (DP/TP/PP), the ZeRO series,
//!   gradient accumulation and gradient checkpointing, plus feasible-plan
//!   enumeration.
//! * [`placement`] — where a job's GPUs sit and which bandwidth each kind of
//!   communication sees.
//! * [`perf`] — the seven-parameter iteration-time model
//!   (`T_iter = T_cc + T_oo + k_const`, Eq. 1) with the p-norm overlap
//!   function `f_overlap^k`.
//! * [`memory`] — GPU/host memory, CPU and bandwidth demand estimation
//!   (drives OOM feasibility and reproduces Fig. 2).
//! * [`fit`] — RMSLE model fitting with one from-scratch damped
//!   Gauss–Newton descent, run from seeded starts for the profile fit and
//!   warm-started for online refits (paper §4.3, "continuous model
//!   fitting").
//! * [`curve`] — resource sensitivity curves and slopes (paper §5.2, Fig. 6)
//!   with a memoizing cache.
//!
//! ## Quick example
//!
//! ```
//! use rubick_model::prelude::*;
//!
//! let spec = ModelSpec::gpt2_xl();
//! let env = ClusterEnv::a800();
//! let shape = NodeShape::a800();
//! // Enumerate all feasible plans for 4 GPUs on one node with batch 16.
//! let plans = enumerate_plans(&spec, 4, 16, &shape, &env);
//! assert!(!plans.is_empty());
//! // Predict iteration time for each with default parameters.
//! let params = PerfParams::default();
//! for plan in &plans {
//!     let placement = Placement::single_node(4, 16, 128.0);
//!     let t = params.iter_time(&spec, plan, 16, &placement, &env);
//!     assert!(t > 0.0);
//! }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod curve;
pub mod env;
pub mod error;
pub mod fit;
pub mod memory;
pub mod perf;
pub mod placement;
pub mod plan;
pub mod planset;
pub mod reference;
pub mod resources;
pub mod search;
pub mod spec;

pub use curve::{CurveCache, CurvePoint, SensitivityCurve};
pub use env::ClusterEnv;
pub use error::ModelError;
pub use fit::{fit_perf_params, refit_params, refit_step, DataPoint, FitOptions, FitResult};
pub use memory::{MemoryEstimator, ResourceDemand};
pub use perf::{BestPlanMemo, MemoRow, PerfParams, ThroughputModel};
pub use placement::{CommTopology, Placement};
pub use plan::{enumerate_plans, ExecutionPlan, MemoryMode, Parallelism, PlanEnumerator, PlanKind};
pub use planset::PlanSetCache;
pub use resources::{NodeShape, Resources};
pub use search::PlanSearch;
pub use spec::{ModelFamily, ModelSpec};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::curve::{CurveCache, CurvePoint, SensitivityCurve};
    pub use crate::env::ClusterEnv;
    pub use crate::error::ModelError;
    pub use crate::fit::{
        fit_perf_params, refit_params, refit_step, DataPoint, FitOptions, FitResult,
    };
    pub use crate::memory::{MemoryEstimator, ResourceDemand};
    pub use crate::perf::{BestPlanMemo, MemoRow, PerfParams, ThroughputModel};
    pub use crate::placement::{CommTopology, Placement};
    pub use crate::plan::{
        enumerate_plans, ExecutionPlan, MemoryMode, Parallelism, PlanEnumerator, PlanKind,
    };
    pub use crate::planset::PlanSetCache;
    pub use crate::resources::{NodeShape, Resources};
    pub use crate::search::PlanSearch;
    pub use crate::spec::{ModelFamily, ModelSpec};
}
