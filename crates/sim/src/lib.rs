//! # rubick-sim
//!
//! A **discrete-event GPU-cluster simulator**: the substrate every
//! end-to-end experiment of the Rubick reproduction runs on.
//!
//! The paper validates its own discrete-time simulator against the physical
//! 64-GPU cluster (§7.4, max 6.9 % JCT error) and uses it for the load and
//! model-mix sweeps; we build that simulator and use it for *all* cluster
//! experiments, with [`rubick_testbed::TestbedOracle`] standing in for the
//! hardware.
//!
//! Modules:
//!
//! * [`cluster`] — nodes, multi-resource accounting, allocations.
//! * [`job`] — job specifications, lifecycle state, checkpoint-resume cost.
//! * [`tenant`] — tenants and quotas for the multi-tenant experiments.
//! * [`scheduler`] — the [`Scheduler`] trait every policy implements
//!   (Rubick, Sia, Synergy, AntMan, the ablations) plus assignment types.
//! * [`engine`] — the event loop: submissions, completions, reconfiguration
//!   penalties, periodic scheduling rounds. Every state transition emits a
//!   typed `rubick_obs::SimEvent` on the event spine.
//! * [`report`] — the fold turning the event stream back into a
//!   [`SimReport`]; metrics have a single source of truth.
//! * [`metrics`] — per-job records and the summary statistics of Table 4
//!   (average/P99 JCT, makespan, reconfiguration overhead, SLA attainment).
//! * [`harness`] — the shared scenario harness: declarative experiment
//!   specs ([`ScenarioSpec`]), sweep grids, and the deterministic
//!   parallel cell executor behind `rubick sweep`.
//! * [`serve`] — live scheduling sessions over the stepped engine core:
//!   the NDJSON op protocol, the write-ahead session journal, and
//!   crash recovery by deterministic replay (`rubick serve`).

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod cluster;
pub mod engine;
pub mod harness;
pub mod job;
pub mod metrics;
pub mod refit;
pub mod report;
pub mod scheduler;
pub mod serve;
pub mod tenant;

pub use cluster::{Allocation, Cluster, Node};
pub use engine::{Engine, EngineConfig, StepOutcome};
pub use harness::baseline::{diff_outcomes, parse_baseline, Baseline, BaselineDiff};
pub use harness::{
    run_scenario, run_scenario_with, CellTiming, ChaosKnobs, ScenarioBackend, ScenarioOutcome,
    ScenarioSpec, SchedulerWithRefit, TraceKind,
};
pub use job::{JobClass, JobId, JobSpec, JobStatus};
pub use metrics::{JobRecord, SimReport};
pub use refit::{RefitHook, RefitObservation, RefitOutcome};
pub use report::ReportSink;
pub use scheduler::{Assignment, JobDelta, JobSnapshot, Scheduler};
pub use serve::{
    recover, Recovery, RecoveryStats, ServeMeta, ServeOp, ServeReply, ServeSession, SessionState,
    SubmitOp,
};
pub use tenant::{Tenant, TenantId};
