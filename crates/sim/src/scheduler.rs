//! The scheduler interface every policy implements.
//!
//! The engine calls [`Scheduler::schedule`] whenever jobs are submitted or
//! completed (and optionally on a periodic tick). The policy sees a
//! snapshot of all active jobs and the cluster, and returns the **complete
//! target assignment**: which jobs should run where with which execution
//! plan. The engine diffs the target against the current state and applies
//! launches, reconfigurations and preemptions (with their checkpoint-resume
//! costs).

use crate::cluster::{Allocation, Cluster};
use crate::job::{JobId, JobSpec, JobStatus};
use crate::tenant::Tenant;
use rubick_model::ExecutionPlan;
use std::sync::Arc;

/// What a policy knows about one active (queued or running) job.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// The immutable job description.
    pub spec: Arc<JobSpec>,
    /// Current lifecycle status.
    pub status: JobStatus,
    /// Mini-batches still to run (fractional while in flight).
    pub remaining_batches: f64,
    /// When the job entered the queue (== submit time until first launch).
    pub queued_since: f64,
    /// Wall-clock the job has spent holding resources so far, seconds
    /// (the `T` of the reconfiguration-penalty gate).
    pub runtime: f64,
    /// How many times the job was reconfigured (the `N` of the gate).
    pub reconfig_count: u32,
    /// Throughput of the user-requested configuration measured at
    /// admission, samples/s — the SLA baseline (`None` if the requested
    /// configuration itself cannot run).
    pub baseline_throughput: Option<f64>,
}

impl JobSnapshot {
    /// Shorthand for the job id.
    pub fn id(&self) -> JobId {
        self.spec.id
    }

    /// Current allocation, if running.
    pub fn allocation(&self) -> Option<&Allocation> {
        match &self.status {
            JobStatus::Running { allocation, .. } => Some(allocation),
            _ => None,
        }
    }

    /// Current plan, if running.
    pub fn plan(&self) -> Option<&ExecutionPlan> {
        match &self.status {
            JobStatus::Running { plan, .. } => Some(plan),
            _ => None,
        }
    }

    /// The reconfiguration-penalty guard of §5.2: would one more
    /// reconfiguration keep `(T − N·δ)/T` above `threshold`?
    ///
    /// `T` is the job's aggregated training time so far; new jobs (tiny
    /// `T`) are always allowed to (re)configure at launch since the launch
    /// itself is not a reconfiguration.
    pub fn reconfig_allowed(&self, threshold: f64) -> bool {
        let delta = self.spec.checkpoint_resume_secs();
        let t = self.runtime;
        if t <= 0.0 {
            return true;
        }
        let n = (self.reconfig_count + 1) as f64;
        (t - n * delta) / t >= threshold
    }
}

/// Per-round incremental-planning statistics reported by schedulers that
/// support dirty-set rounds (see `rubick-core`'s `DirtyTracker`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundStats {
    /// Jobs whose planning inputs changed and were re-searched.
    pub dirty: u64,
    /// Jobs whose prior assignment was provably still optimal-feasible.
    pub clean: u64,
    /// Clean running jobs whose allocation/plan were emitted verbatim
    /// without invoking the plan search.
    pub reused: u64,
    /// Jobs that went through the full plan search this round (dirty jobs
    /// plus any clean jobs that lost their skip certificate mid-round).
    pub searched: u64,
    /// Fingerprint comparisons performed while classifying this round.
    /// With delta-driven classification a quiet round compares O(changed)
    /// fingerprints instead of O(jobs); the fallback path compares all.
    pub classified: u64,
}

/// The set of jobs whose snapshots changed since the scheduler last ran,
/// as tracked by the engine between rounds.
///
/// Incremental policies use the delta to classify only the jobs that
/// could have changed instead of fingerprinting every job. The delta is
/// advisory and may over-approximate: it can name a job whose snapshot
/// did not change, or one that changed and has since left the slice
/// (finished or cancelled). A departure itself is not marked; the policy
/// sees the job missing from the slice. A policy that receives no delta (or
/// distrusts it) falls back to full fingerprint classification with
/// identical output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobDelta {
    /// Jobs submitted, re-queued, launched, reconfigured, preempted,
    /// evicted, or otherwise mutated since the last scheduling round,
    /// sorted by [`JobId`] and deduplicated.
    pub changed: Vec<JobId>,
}

/// A cluster-level input change the engine pushes into schedulers between
/// rounds, so incremental policies can invalidate cached planning state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterDelta {
    /// A node went down (chaos fault); its capacity vanished.
    NodeDown(usize),
    /// A node came back up; its capacity returned.
    NodeUp(usize),
}

/// One row of the target assignment a policy returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The job to (keep) running.
    pub job: JobId,
    /// Its target allocation.
    pub allocation: Allocation,
    /// Its target execution plan.
    pub plan: ExecutionPlan,
}

/// A cluster scheduling policy.
///
/// Implementations live in `rubick-core`: the Rubick policy (Algorithm 1),
/// the Sia/Synergy/AntMan baselines and the Rubick-E/R/N ablations.
pub trait Scheduler: Send {
    /// A short display name ("rubick", "sia", …).
    fn name(&self) -> &str;

    /// Inert: every policy runs its rounds on one thread, and nothing in
    /// the workspace calls this. It stays as a default no-op only because
    /// the frozen `benchmark/` package's scheduler wrapper forwards it;
    /// remove it together with that forwarding.
    fn set_parallelism(&mut self, parallelism: Option<usize>) {
        let _ = parallelism;
    }

    /// Notifies the policy of a cluster-level input change (node up/down
    /// from fault injection). The default does nothing, and no in-tree
    /// policy overrides it: a node going down or up moves its
    /// schedulable capacity, which Rubick's incremental tracker already
    /// reads from the cluster each round.
    ///
    /// Deltas must never change the returned assignments — the cluster
    /// snapshot passed to [`Scheduler::schedule`] remains the source of
    /// truth.
    fn notify(&mut self, delta: &ClusterDelta) {
        let _ = delta;
    }

    /// Hands the policy the set of jobs whose snapshots changed since the
    /// last round, immediately before [`Scheduler::schedule`], whose slice
    /// the delta describes: a job that left is missing from that slice,
    /// not marked. Incremental policies use it to classify
    /// O(changed) jobs instead of O(jobs); the default does nothing.
    ///
    /// Like [`Scheduler::notify`], deltas must never change the returned
    /// assignments — the snapshots passed to `schedule` remain the source
    /// of truth, and a policy that ignores the delta must produce the same
    /// output via full classification.
    fn notify_jobs(&mut self, delta: &JobDelta) {
        let _ = delta;
    }

    /// Statistics of the most recent scheduling round, for policies that
    /// plan incrementally. `None` (the default) means the policy does not
    /// track dirty sets.
    fn last_round_stats(&self) -> Option<RoundStats> {
        None
    }

    /// Computes the complete target assignment for this scheduling round.
    ///
    /// * `now` — current simulation time;
    /// * `jobs` — all queued and running jobs (finished jobs excluded),
    ///   sorted by strictly increasing id. The slice is the engine's own
    ///   job table, so a policy may merge per-job state against it
    ///   without sorting;
    /// * `cluster` — node shapes and *total* capacities. The engine passes
    ///   the cluster with all of `jobs`' allocations still applied; the
    ///   policy is free to plan from scratch since the engine releases and
    ///   re-applies allocations when diffing.
    /// * `tenants` — quota table for multi-tenant policies.
    ///
    /// Jobs omitted from the result are queued (running ones get
    /// preempted). Assignments identical to a job's current state are
    /// no-ops.
    fn schedule(
        &mut self,
        now: f64,
        jobs: &[JobSnapshot],
        cluster: &Cluster,
        tenants: &[Tenant],
    ) -> Vec<Assignment>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobClass;
    use crate::tenant::TenantId;
    use rubick_model::{ModelSpec, Resources};

    fn snapshot(runtime: f64, reconfigs: u32) -> JobSnapshot {
        let model = ModelSpec::gpt2_xl();
        JobSnapshot {
            spec: Arc::new(JobSpec {
                id: 1,
                global_batch: 16,
                submit_time: 0.0,
                target_batches: 1000,
                requested: Resources::new(8, 16, 100.0),
                initial_plan: ExecutionPlan::dp(8),
                class: JobClass::Guaranteed,
                tenant: TenantId::default(),
                model,
            }),
            status: JobStatus::Queued,
            remaining_batches: 1000.0,
            queued_since: 0.0,
            runtime,
            reconfig_count: reconfigs,
            baseline_throughput: Some(10.0),
        }
    }

    #[test]
    fn fresh_jobs_may_always_configure() {
        let s = snapshot(0.0, 0);
        assert!(s.reconfig_allowed(0.97));
    }

    #[test]
    fn short_lived_jobs_blocked_from_thrashing() {
        // A job that has run two minutes cannot afford a ~55 s checkpoint
        // under the 0.97 threshold.
        let s = snapshot(120.0, 0);
        assert!(!s.reconfig_allowed(0.97));
    }

    #[test]
    fn long_running_jobs_allowed() {
        let s = snapshot(100_000.0, 2);
        assert!(s.reconfig_allowed(0.97));
    }

    #[test]
    fn many_reconfigs_eventually_blocked() {
        let s = snapshot(10_000.0, 5);
        // 6 * ~55s = 330s; 1 - 330/10000 = 0.967 < 0.97.
        assert!(!s.reconfig_allowed(0.97));
    }
}
