//! Job specifications and lifecycle state.

use crate::cluster::Allocation;
use crate::tenant::TenantId;
use rubick_model::{ExecutionPlan, ModelSpec, Resources};
use std::fmt;

/// Unique job identifier.
pub type JobId = u64;

/// Whether a job consumes tenant quota (and enjoys SLA protection) or runs
/// opportunistically (paper §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// Consumes quota; the system guarantees at least the performance of
    /// the requested resources with the original plan.
    Guaranteed,
    /// Uses free resources opportunistically; may be preempted.
    BestEffort,
}

impl JobClass {
    /// The stable wire label, which is also the `Display` form.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            JobClass::Guaranteed => "guaranteed",
            JobClass::BestEffort => "best-effort",
        }
    }
}

impl fmt::Display for JobClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An immutable job description, as submitted by the user.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique id.
    pub id: JobId,
    /// Model type (keys the shared performance model).
    pub model: ModelSpec,
    /// Global batch size — held constant through every reconfiguration.
    pub global_batch: u32,
    /// Submission time, seconds since simulation start.
    pub submit_time: f64,
    /// Mini-batches the job must complete.
    pub target_batches: u64,
    /// User-requested resources (the gang request).
    pub requested: Resources,
    /// The execution plan the user configured.
    pub initial_plan: ExecutionPlan,
    /// Scheduling class.
    pub class: JobClass,
    /// Owning tenant.
    pub tenant: TenantId,
}

impl JobSpec {
    /// Checkpoint-resume cost `δ` of switching this job's execution plan
    /// (paper §5.2 / §7.3: average 78 s across the trace mix; grows with
    /// model size because the checkpoint image does).
    pub fn checkpoint_resume_secs(&self) -> f64 {
        40.0 + 12.0 * self.model.params_b().sqrt()
    }

    /// Cost of the very first launch (no checkpoint to restore).
    pub fn cold_start_secs(&self) -> f64 {
        15.0
    }
}

/// Lifecycle status of an active job inside the engine. A job that
/// completes or is cancelled leaves the engine's job table, so no status
/// describes it and no scheduler ever sees it.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Waiting for resources.
    Queued,
    /// Running (or restarting) with an allocation and plan.
    Running {
        /// Current resource grant.
        allocation: Allocation,
        /// Current execution plan.
        plan: ExecutionPlan,
        /// Measured throughput on this configuration, samples/s.
        throughput: f64,
        /// Simulation time at which useful work (re)starts — during a
        /// checkpoint-resume window this lies in the future.
        resume_at: f64,
    },
}

impl JobStatus {
    /// Whether the job currently holds resources.
    pub fn is_running(&self) -> bool {
        matches!(self, JobStatus::Running { .. })
    }

    /// Whether the job is waiting in the queue.
    pub fn is_queued(&self) -> bool {
        matches!(self, JobStatus::Queued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubick_model::ExecutionPlan;

    fn spec(model: ModelSpec) -> JobSpec {
        JobSpec {
            id: 1,
            global_batch: model.default_batch,
            submit_time: 0.0,
            target_batches: 100,
            requested: Resources::new(8, 16, 100.0),
            initial_plan: ExecutionPlan::dp(8),
            class: JobClass::Guaranteed,
            tenant: TenantId::default(),
            model,
        }
    }

    #[test]
    fn checkpoint_cost_grows_with_model_size() {
        let small = spec(ModelSpec::vit_base()).checkpoint_resume_secs();
        let large = spec(ModelSpec::llama_30b()).checkpoint_resume_secs();
        assert!(small < large);
        // The trace mix should average near the paper's 78 s figure.
        assert!(small > 30.0 && large < 150.0);
    }

    #[test]
    fn status_predicates() {
        assert!(JobStatus::Queued.is_queued());
        let running = JobStatus::Running {
            allocation: Allocation::empty(),
            plan: ExecutionPlan::dp(1),
            throughput: 1.0,
            resume_at: 0.0,
        };
        assert!(running.is_running());
        assert!(!running.is_queued());
    }
}
