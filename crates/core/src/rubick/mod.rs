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

mod certs;
mod ctx;
mod dirty;
mod grow;
mod minres;
mod policy;
mod state;

pub use minres::min_res;

use crate::common::{JobCache, JobIndex};
use crate::registry::ModelRegistry;
use rubick_model::BestPlanMemo;
use rubick_sim::cluster::Cluster;
use rubick_sim::scheduler::{Assignment, JobDelta, JobSnapshot, RoundStats, Scheduler};
use rubick_sim::tenant::Tenant;
use std::sync::Arc;

/// Tunables of the Rubick policy (and its ablations).
#[derive(Debug, Clone, PartialEq)]
pub struct RubickConfig {
    /// Display name reported in [`SimReport`](rubick_sim::SimReport).
    pub name: String,
    /// Reconfiguration-penalty threshold on `(T − N·δ)/T` (paper: 0.97).
    pub reconfig_threshold: f64,
    /// Allow switching execution plans (disabled in Rubick-R/N, which fall
    /// back to Sia-style DP rescaling / frozen plans).
    pub plan_reconfig: bool,
    /// Allow multi-resource reallocation (disabled in Rubick-E/N, which pin
    /// every job to its requested amounts).
    pub resource_realloc: bool,
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
            plan_reconfig: true,
            resource_realloc: true,
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
    /// Incremental-planning memory (fingerprints, emitted assignments,
    /// ledger projection), carried from one round to the next.
    pub(crate) tracker: dirty::DirtyTracker,
    /// The round's job id → slice position map, rebuilt at the start of
    /// every round and lent to the tracker, the round state and the
    /// context; kept across rounds so its table is reused.
    pub(crate) index: JobIndex,
    /// `GetBestPlan` answers by placement class, kept across rounds. Each
    /// memo row remembers the fit it was scored under, so a refit empties
    /// only the refitted model's rows.
    pub(crate) plan_memo: BestPlanMemo,
    /// Each job's epoch-stable context and skip certificate, kept across
    /// rounds beside the memo and cleared when the registry version or the
    /// cluster's GPU count moves.
    pub(crate) cache: JobCache<ctx::RubickEntry>,
    /// The round state's buffers (allocation table, undo log, pass-2
    /// order), refilled every round instead of reallocated.
    pub(crate) buffers: state::RoundBuffers,
}

impl RubickScheduler {
    /// Full Rubick with default configuration.
    pub fn new(registry: Arc<ModelRegistry>) -> Self {
        RubickScheduler::with_config(registry, RubickConfig::default())
    }

    /// Rubick with a custom configuration (used by the ablation variants).
    pub fn with_config(registry: Arc<ModelRegistry>, config: RubickConfig) -> Self {
        RubickScheduler {
            registry,
            config,
            tracker: dirty::DirtyTracker::new(),
            index: JobIndex::default(),
            plan_memo: BestPlanMemo::new(),
            cache: JobCache::default(),
            buffers: state::RoundBuffers::default(),
        }
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

    fn notify_jobs(&mut self, delta: &JobDelta) {
        // The engine's per-round job delta: accumulated between rounds and
        // consumed by the next classification, which then only fingerprints
        // the named jobs (plus running-job penalty-gate suspects) instead
        // of the whole cluster. Deltas over-approximate, so pushing one is
        // always sound; classification falls back to full fingerprinting
        // whenever no delta was pushed.
        self.tracker.push_delta(delta);
    }

    fn last_round_stats(&self) -> Option<RoundStats> {
        self.tracker.stats()
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
