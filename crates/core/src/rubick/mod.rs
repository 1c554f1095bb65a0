//! The Rubick scheduling policy — Algorithm 1 of the paper.
//!
//! Per scheduling round (triggered on job submission/completion):
//!
//! 1. **SLA pass** — queued *guaranteed* jobs whose minimum resource demand
//!    ([`min_res`]) fits the tenant's remaining quota are scheduled
//!    immediately (lines 2–3). The minimum demand is the fewest resources —
//!    possibly with a better plan — that match the performance of the
//!    user-requested configuration, never exceeding it in any dimension.
//! 2. **Throughput pass** — best-effort and running jobs, sorted by their
//!    resource-sensitivity-curve slopes, receive remaining resources
//!    (lines 4–5); growing a job may **shrink the least sensitive** other
//!    job on a node (lines 8–16), one `Δr` at a time, as long as total
//!    (normalized) throughput increases or the grown job is still below its
//!    minimum demand.
//! 3. **Plan selection + memory allocation** — `GetBestPlan` picks the best
//!    feasible plan for the found placement and `AllocMem` sizes the host
//!    memory to the plan's estimate (lines 19–23).
//!
//! Reconfigurations are gated by the checkpoint-resume penalty rule of
//! §5.2 (`(T − N·δ)/T ≥ 0.97`), and starving best-effort jobs are promoted
//! after a queueing-delay threshold.

mod dirty;
mod minres;
mod policy;

pub use minres::min_res;

use crate::registry::ModelRegistry;
use parking_lot::Mutex;
use rubick_model::BestPlanMemo;
use rubick_sim::cluster::Cluster;
use rubick_sim::scheduler::{
    Assignment, ClusterDelta, JobDelta, JobSnapshot, RoundStats, Scheduler,
};
use rubick_sim::tenant::Tenant;
use rubick_testbed::TestbedOracle;
use std::collections::HashMap;
use std::sync::Arc;

/// Lazy profiling state: model types are profiled the first time a job of
/// that type is submitted (phase ① of Fig. 4), and jobs of a type remain
/// unschedulable until its simulated profiling window (~210 s) elapses.
pub(crate) struct LazyProfiling {
    pub(crate) oracle: TestbedOracle,
    /// Simulation time at which each model type's fitted model is ready.
    pub(crate) ready_at: Mutex<HashMap<String, f64>>,
}

/// Tunables of the Rubick policy (and its ablations).
#[derive(Debug, Clone, PartialEq)]
pub struct RubickConfig {
    /// Display name reported in [`SimReport`](rubick_sim::SimReport).
    pub name: String,
    /// Reconfiguration-penalty threshold on `(T − N·δ)/T` (paper: 0.97).
    pub reconfig_threshold: f64,
    /// Queueing delay after which a best-effort job is scheduled with
    /// priority to prevent starvation, seconds.
    pub starvation_timeout: f64,
    /// Allow switching execution plans (disabled in Rubick-R/N, which fall
    /// back to Sia-style DP rescaling / frozen plans).
    pub plan_reconfig: bool,
    /// Allow multi-resource reallocation (disabled in Rubick-E/N, which pin
    /// every job to its requested amounts).
    pub resource_realloc: bool,
    /// Minimum predicted relative throughput gain to justify reconfiguring
    /// a running job (churn guard on top of the penalty gate).
    pub min_gain: f64,
    /// Incremental dirty-set rounds: fingerprint every job's planning
    /// inputs and skip the plan search for jobs whose previous decision is
    /// provably still optimal-feasible (see `DESIGN.md` §11). Skips fire
    /// only under bit-exact certificates, so round output is identical
    /// with the flag on or off; `false` forces a full re-plan every round.
    pub incremental: bool,
}

impl Default for RubickConfig {
    fn default() -> Self {
        RubickConfig {
            name: "rubick".into(),
            reconfig_threshold: 0.97,
            starvation_timeout: 1200.0,
            plan_reconfig: true,
            resource_realloc: true,
            min_gain: 0.15,
            incremental: true,
        }
    }
}

/// The Rubick scheduler.
///
/// ```no_run
/// use rubick_core::{ModelRegistry, RubickScheduler};
/// use rubick_model::ModelSpec;
/// use rubick_testbed::TestbedOracle;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), rubick_model::ModelError> {
/// let oracle = TestbedOracle::new(0);
/// let registry = Arc::new(ModelRegistry::from_oracle(&oracle, &ModelSpec::zoo())?);
/// let scheduler = RubickScheduler::new(registry);
/// # let _ = scheduler;
/// # Ok(())
/// # }
/// ```
pub struct RubickScheduler {
    pub(crate) registry: Arc<ModelRegistry>,
    pub(crate) config: RubickConfig,
    pub(crate) lazy: Option<LazyProfiling>,
    /// Incremental-planning memory (fingerprints, ledger projection,
    /// cached per-job context). Interior-mutable because rounds run
    /// through `&self` plumbing; uncontended in practice — locked once
    /// per round.
    pub(crate) tracker: Mutex<dirty::DirtyTracker>,
    /// `GetBestPlan` answers by placement class, kept across rounds and
    /// locked once per round like `tracker`. Each memo row remembers the
    /// fit it was scored under, so a refit empties only the refitted
    /// model's rows.
    pub(crate) plan_memo: Mutex<BestPlanMemo>,
}

impl RubickScheduler {
    /// Full Rubick with default configuration.
    pub fn new(registry: Arc<ModelRegistry>) -> Self {
        RubickScheduler {
            registry,
            config: RubickConfig::default(),
            lazy: None,
            tracker: Mutex::new(dirty::DirtyTracker::new()),
            plan_memo: Mutex::new(BestPlanMemo::new()),
        }
    }

    /// Rubick with a custom configuration (used by the ablation variants).
    pub fn with_config(registry: Arc<ModelRegistry>, config: RubickConfig) -> Self {
        RubickScheduler {
            registry,
            config,
            lazy: None,
            tracker: Mutex::new(dirty::DirtyTracker::new()),
            plan_memo: Mutex::new(BestPlanMemo::new()),
        }
    }

    /// Enables on-demand profiling: unknown model types are profiled
    /// against `oracle` at first submission (phase ① of Fig. 4), and their
    /// jobs wait out the simulated profiling time (~210 s per type, §7.3)
    /// before becoming schedulable. Pre-profiling the zoo up front makes
    /// this a no-op.
    pub fn with_lazy_profiling(mut self, oracle: TestbedOracle) -> Self {
        self.lazy = Some(LazyProfiling {
            oracle,
            ready_at: Mutex::new(HashMap::new()),
        });
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &RubickConfig {
        &self.config
    }
}

impl Scheduler for RubickScheduler {
    fn name(&self) -> &str {
        &self.config.name
    }

    fn notify(&mut self, delta: &ClusterDelta) {
        // Belt and braces: topology changes also surface as an epoch
        // mismatch (node capacities are part of the epoch), but the
        // explicit signal keeps the tracker honest even if a future
        // epoch field is relaxed.
        let _ = delta;
        self.tracker.lock().force_dirty();
    }

    fn notify_jobs(&mut self, delta: &JobDelta) {
        // The engine's per-round job delta: accumulated between rounds and
        // consumed by the next classification, which then only fingerprints
        // the named jobs (plus running-job penalty-gate suspects) instead
        // of the whole cluster. Deltas over-approximate, so pushing one is
        // always sound; classification falls back to full fingerprinting
        // whenever no delta was pushed.
        self.tracker.lock().push_delta(delta);
    }

    fn last_round_stats(&self) -> Option<RoundStats> {
        self.tracker.lock().stats()
    }

    fn schedule(
        &mut self,
        now: f64,
        jobs: &[JobSnapshot],
        cluster: &Cluster,
        tenants: &[Tenant],
    ) -> Vec<Assignment> {
        policy::run_round(self, now, jobs, cluster, tenants)
    }
}
