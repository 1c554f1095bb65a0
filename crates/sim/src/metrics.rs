//! Per-job records and experiment summary statistics.
//!
//! [`SimReport`] produces the quantities the paper's evaluation tables
//! report: average and P99 job completion time, makespan, per-class
//! breakdowns (Table 4), reconfiguration overheads (§7.3 "system
//! overheads") and SLA attainment for guaranteed jobs.

use crate::job::{JobClass, JobId};
use crate::tenant::TenantId;
use std::sync::Arc;

/// One scheduling decision the engine applied (the audit trail of a run).
///
/// The engine records launches, reconfigurations, preemptions and rejected
/// assignments so experiments and the CLI's `--verbose` mode can explain
/// *why* a run behaved the way it did.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// A queued job was launched.
    Launch {
        /// Simulation time, s.
        at: f64,
        /// The job.
        job: JobId,
        /// GPUs granted.
        gpus: u32,
        /// Execution plan label, shared with the run's other uses of it.
        plan: Arc<str>,
        /// Measured throughput, samples/s.
        throughput: f64,
    },
    /// A running job was reconfigured (new allocation and/or plan).
    Reconfigure {
        /// Simulation time, s.
        at: f64,
        /// The job.
        job: JobId,
        /// GPUs granted after the change.
        gpus: u32,
        /// New execution plan label, shared like [`Decision::Launch`]'s.
        plan: Arc<str>,
        /// Checkpoint-resume delay charged, s.
        delay: f64,
    },
    /// A running job was preempted back to the queue.
    Preempt {
        /// Simulation time, s.
        at: f64,
        /// The job.
        job: JobId,
    },
    /// An assignment was rejected (overcommit or OOM on the testbed).
    Reject {
        /// Simulation time, s.
        at: f64,
        /// The job.
        job: JobId,
        /// Why it was rejected.
        reason: String,
    },
    /// A job completed.
    Finish {
        /// Simulation time, s.
        at: f64,
        /// The job.
        job: JobId,
    },
    /// A job was withdrawn by its owner (serve sessions only; batch
    /// simulations never record it).
    Cancel {
        /// Simulation time, s.
        at: f64,
        /// The job.
        job: JobId,
    },
}

impl Decision {
    /// The simulation time of the decision.
    pub fn at(&self) -> f64 {
        match self {
            Decision::Launch { at, .. }
            | Decision::Reconfigure { at, .. }
            | Decision::Preempt { at, .. }
            | Decision::Reject { at, .. }
            | Decision::Finish { at, .. }
            | Decision::Cancel { at, .. } => *at,
        }
    }

    /// The job the decision concerns.
    pub fn job(&self) -> JobId {
        match self {
            Decision::Launch { job, .. }
            | Decision::Reconfigure { job, .. }
            | Decision::Preempt { job, .. }
            | Decision::Reject { job, .. }
            | Decision::Finish { job, .. }
            | Decision::Cancel { job, .. } => *job,
        }
    }
}

/// Everything recorded about one completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job id.
    pub id: JobId,
    /// Model type name, shared by every record of the model.
    pub model: Arc<str>,
    /// Scheduling class.
    pub class: JobClass,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Submission time, s.
    pub submit_time: f64,
    /// First launch time, s.
    pub first_start: Option<f64>,
    /// Completion time, s.
    pub finish_time: f64,
    /// Number of reconfigurations (checkpoint-resume cycles after first
    /// launch).
    pub reconfig_count: u32,
    /// Total seconds spent in checkpoint-resume windows.
    pub reconfig_time: f64,
    /// GPU-seconds wasted in checkpoint-resume windows (time x held GPUs).
    pub reconfig_gpu_seconds: f64,
    /// GPU-seconds consumed (integral of held GPUs over time).
    pub gpu_seconds: f64,
    /// Seconds spent holding resources.
    pub runtime: f64,
    /// Mini-batches completed.
    pub target_batches: u64,
    /// Throughput of the user-requested configuration, samples/s (the SLA
    /// baseline), when that configuration was runnable at all.
    pub baseline_throughput: Option<f64>,
    /// Average achieved throughput while holding resources, samples/s.
    pub avg_throughput: f64,
}

impl JobRecord {
    /// Job completion time: finish − submit.
    pub fn jct(&self) -> f64 {
        self.finish_time - self.submit_time
    }

    /// Queueing delay before the first launch.
    pub fn queueing_delay(&self) -> f64 {
        self.first_start.unwrap_or(self.finish_time) - self.submit_time
    }

    /// Whether the job's achieved performance met the SLA baseline
    /// (guaranteed jobs only; `None` for best-effort jobs or jobs whose
    /// requested configuration could not run).
    ///
    /// A small tolerance absorbs measurement noise, matching the paper's
    /// "same or better performance" framing.
    pub fn sla_met(&self) -> Option<bool> {
        if self.class != JobClass::Guaranteed {
            return None;
        }
        self.baseline_throughput
            .map(|base| self.avg_throughput >= 0.95 * base)
    }
}

/// The outcome of one simulated experiment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimReport {
    /// Scheduler that produced this run.
    pub scheduler: String,
    /// All completed jobs.
    pub jobs: Vec<JobRecord>,
    /// Jobs that never finished before the simulation ended (should be
    /// empty in healthy runs).
    pub unfinished: Vec<JobId>,
    /// Simulation end time (last completion), s.
    pub makespan: f64,
    /// Assignments rejected because the oracle refused to run them
    /// (scheduler bugs / OOM mispredictions).
    pub infeasible_assignments: u64,
    /// Number of scheduling rounds executed.
    pub rounds: u64,
    /// Online model refits that materially changed a throughput model
    /// (0 unless the run had `--refit` enabled).
    pub model_refits: u64,
    /// Chronological audit trail of every applied decision.
    pub decisions: Vec<Decision>,
}

/// Sums from `+0.0`. std's f64 `Sum` starts from `-0.0`, so an empty
/// total would render as `-0.000`; for non-negative terms the two agree
/// bit for bit on any non-empty input.
fn total(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |acc, v| acc + v)
}

impl SimReport {
    fn jcts<'a>(&'a self, filter: impl Fn(&JobRecord) -> bool + 'a) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .jobs
            .iter()
            .filter(|j| filter(j))
            .map(|j| j.jct())
            .collect();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    /// Average JCT over all jobs, seconds (0 when empty).
    pub fn avg_jct(&self) -> f64 {
        self.avg_jct_where(|_| true)
    }

    /// Average JCT over jobs matching a predicate, seconds.
    pub fn avg_jct_where(&self, filter: impl Fn(&JobRecord) -> bool) -> f64 {
        let v = self.jcts(filter);
        if v.is_empty() {
            0.0
        } else {
            total(v.iter().copied()) / v.len() as f64
        }
    }

    /// P99 JCT (seconds) over all jobs.
    pub fn p99_jct(&self) -> f64 {
        self.p99_jct_where(|_| true)
    }

    /// P99 JCT over jobs matching a predicate, seconds.
    pub fn p99_jct_where(&self, filter: impl Fn(&JobRecord) -> bool) -> f64 {
        let v = self.jcts(filter);
        if v.is_empty() {
            return 0.0;
        }
        let idx = ((0.99 * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
        v[idx]
    }

    /// Average JCT for one scheduling class, seconds.
    pub fn avg_jct_class(&self, class: JobClass) -> f64 {
        self.avg_jct_where(|j| j.class == class)
    }

    /// Total GPU-hours consumed.
    pub fn gpu_hours(&self) -> f64 {
        total(self.jobs.iter().map(|j| j.gpu_seconds)) / 3600.0
    }

    /// Total time spent reconfiguring across all jobs, seconds.
    pub fn total_reconfig_time(&self) -> f64 {
        total(self.jobs.iter().map(|j| j.reconfig_time))
    }

    /// Average per-job reconfiguration time (the paper reports 78 s),
    /// counting only jobs that reconfigured at least once.
    pub fn avg_reconfig_time(&self) -> f64 {
        let n: u32 = self.jobs.iter().map(|j| j.reconfig_count).sum();
        if n == 0 {
            0.0
        } else {
            self.total_reconfig_time() / n as f64
        }
    }

    /// GPU-hours wasted reconfiguring as a share of total GPU-hours (the
    /// paper reports ≈1 % of total GPU hours).
    pub fn reconfig_share(&self) -> f64 {
        let gpu_seconds = total(self.jobs.iter().map(|j| j.gpu_seconds));
        if gpu_seconds <= 0.0 {
            0.0
        } else {
            total(self.jobs.iter().map(|j| j.reconfig_gpu_seconds)) / gpu_seconds
        }
    }

    /// Fraction of guaranteed jobs whose SLA was met (1.0 when there are
    /// none).
    pub fn sla_attainment(&self) -> f64 {
        let evaluated: Vec<bool> = self.jobs.iter().filter_map(|j| j.sla_met()).collect();
        if evaluated.is_empty() {
            1.0
        } else {
            evaluated.iter().filter(|&&m| m).count() as f64 / evaluated.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: JobId, submit: f64, finish: f64, class: JobClass) -> JobRecord {
        JobRecord {
            id,
            model: "m".into(),
            class,
            tenant: TenantId::default(),
            submit_time: submit,
            first_start: Some(submit + 10.0),
            finish_time: finish,
            reconfig_count: 1,
            reconfig_time: 78.0,
            reconfig_gpu_seconds: 78.0,
            gpu_seconds: 3600.0,
            runtime: finish - submit - 10.0,
            target_batches: 100,
            baseline_throughput: Some(10.0),
            avg_throughput: 12.0,
        }
    }

    fn report() -> SimReport {
        SimReport {
            scheduler: "test".into(),
            jobs: (0..100)
                .map(|i| {
                    record(
                        i,
                        0.0,
                        100.0 + i as f64,
                        if i % 2 == 0 {
                            JobClass::Guaranteed
                        } else {
                            JobClass::BestEffort
                        },
                    )
                })
                .collect(),
            unfinished: vec![],
            makespan: 200.0,
            infeasible_assignments: 0,
            rounds: 5,
            model_refits: 0,
            decisions: vec![],
        }
    }

    #[test]
    fn avg_and_p99() {
        let r = report();
        let avg = r.avg_jct();
        assert!((avg - 149.5).abs() < 1e-9);
        assert_eq!(r.p99_jct(), 198.0);
    }

    #[test]
    fn class_filters() {
        let r = report();
        assert!(r.avg_jct_class(JobClass::Guaranteed) < r.avg_jct_class(JobClass::BestEffort));
    }

    #[test]
    fn sla_counts_only_guaranteed() {
        let mut r = report();
        assert_eq!(r.sla_attainment(), 1.0);
        r.jobs[0].avg_throughput = 1.0; // violates
        assert!(r.sla_attainment() < 1.0);
        // Best-effort jobs are excluded even when slow.
        r.jobs[1].avg_throughput = 0.1;
        let after = r.sla_attainment();
        assert!((after - 49.0 / 50.0).abs() < 1e-9);
    }

    #[test]
    fn reconfig_accounting() {
        let r = report();
        assert!((r.avg_reconfig_time() - 78.0).abs() < 1e-9);
        assert!(r.reconfig_share() > 0.0);
    }

    #[test]
    fn empty_report_defaults() {
        let r = SimReport::default();
        assert_eq!(r.avg_jct(), 0.0);
        assert_eq!(r.p99_jct(), 0.0);
        assert_eq!(r.sla_attainment(), 1.0);
        // Totals of nothing are +0.0, so they never print as "-0.000".
        assert!(r.gpu_hours().is_sign_positive());
        assert!(r.total_reconfig_time().is_sign_positive());
    }
}
