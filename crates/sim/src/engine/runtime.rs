//! Per-job runtime bookkeeping: progress, resource-time integrals and
//! reconfiguration accounting between engine events.

use crate::job::{JobSpec, JobStatus};
use crate::metrics::JobRecord;
use crate::scheduler::JobSnapshot;
use std::sync::Arc;

/// The engine's view of one active job beyond its policy-facing
/// [`JobSnapshot`]: the integrals and counters a policy never reads. The
/// engine keeps one beside each snapshot, at the same position.
#[derive(Debug)]
pub(crate) struct JobRuntime {
    /// The job's model name, from the engine's label table.
    pub(crate) model: Arc<str>,
    /// Seconds of productive training (excludes restore windows).
    pub(crate) work_seconds: f64,
    pub(crate) gpu_seconds: f64,
    pub(crate) reconfig_time: f64,
    /// GPU-seconds lost to checkpoint-resume windows (delay x held GPUs).
    pub(crate) reconfig_gpu_seconds: f64,
    pub(crate) first_start: Option<f64>,
    /// Bumped on every (re)configuration; stale finish events are ignored.
    pub(crate) epoch: u64,
    pub(crate) last_advance: f64,
    /// When a node failure evicted this job (cleared on successful
    /// relaunch); drives restart-penalty charging and fault metrics.
    pub(crate) fault_evicted_at: Option<f64>,
    /// Launch attempts so far, the input to injected launch failures.
    pub(crate) launch_attempts: u64,
}

impl JobRuntime {
    /// A freshly submitted (queued) job: its snapshot and its runtime,
    /// which keeps `model`, the job's interned model name.
    pub(crate) fn submitted(
        spec: Arc<JobSpec>,
        model: Arc<str>,
        now: f64,
        baseline_throughput: Option<f64>,
    ) -> (JobSnapshot, Self) {
        let job = JobSnapshot {
            remaining_batches: spec.target_batches as f64,
            spec,
            status: JobStatus::Queued,
            queued_since: now,
            runtime: 0.0,
            reconfig_count: 0,
            baseline_throughput,
        };
        let rt = JobRuntime {
            model,
            work_seconds: 0.0,
            gpu_seconds: 0.0,
            reconfig_time: 0.0,
            reconfig_gpu_seconds: 0.0,
            first_start: None,
            epoch: 0,
            last_advance: now,
            fault_evicted_at: None,
            launch_attempts: 0,
        };
        (job, rt)
    }

    /// Advances `job`'s progress and resource-time integrals to time `t`.
    pub(crate) fn advance_to(&mut self, job: &mut JobSnapshot, t: f64) {
        if let JobStatus::Running {
            throughput,
            resume_at,
            allocation,
            ..
        } = &job.status
        {
            let held = (t - self.last_advance).max(0.0);
            job.runtime += held;
            self.gpu_seconds += held * allocation.gpus() as f64;
            let work_start = self.last_advance.max(*resume_at);
            if t > work_start {
                let work = t - work_start;
                let batches_per_sec = throughput / job.spec.global_batch as f64;
                job.remaining_batches = (job.remaining_batches - work * batches_per_sec).max(0.0);
                self.work_seconds += work;
            }
        }
        self.last_advance = t;
    }

    /// The final accounting record for `job`, which completed at
    /// `finish_time`.
    pub(crate) fn record(&self, job: &JobSnapshot, finish_time: f64) -> JobRecord {
        let spec = &job.spec;
        let samples = spec.target_batches as f64 * spec.global_batch as f64;
        JobRecord {
            id: spec.id,
            model: Arc::clone(&self.model),
            class: spec.class,
            tenant: spec.tenant.clone(),
            submit_time: spec.submit_time,
            first_start: self.first_start,
            finish_time,
            reconfig_count: job.reconfig_count,
            reconfig_time: self.reconfig_time,
            reconfig_gpu_seconds: self.reconfig_gpu_seconds,
            gpu_seconds: self.gpu_seconds,
            runtime: job.runtime,
            target_batches: spec.target_batches,
            baseline_throughput: job.baseline_throughput,
            avg_throughput: if self.work_seconds > 0.0 {
                samples / self.work_seconds
            } else {
                0.0
            },
        }
    }
}
