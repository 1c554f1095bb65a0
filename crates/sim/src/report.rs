//! Sink-derived reports: folding the event spine back into [`SimReport`].
//!
//! The engine does not accumulate metrics directly — it emits
//! [`SimEvent`]s and owns a [`ReportSink`] that folds them. Because
//! [`crate::Engine::run_with_sink`] forwards the identical stream to the
//! caller's sink, any consumer (a JSONL file parsed back later, a test
//! probe, a live dashboard) can reproduce the exact report by replaying
//! the events through a fresh `ReportSink`: the event stream is the single
//! source of truth.
//!
//! Two facts are worth knowing when replaying streams:
//!
//! * Jobs whose `Submit` event never fired (the simulation hit `max_time`
//!   first) cannot appear in the stream; the engine supplements them into
//!   [`SimReport::unfinished`] after folding.
//! * A target with an *empty* allocation counts as no assignment: a
//!   running job it names is preempted with a `decision_applied` event of
//!   kind `preempt`, and a queued one stays queued without an event (no
//!   in-tree policy emits such assignments).

use crate::job::{JobClass, JobId, JobSpec};
use crate::metrics::{Decision, JobRecord, SimReport};
use crate::tenant::TenantId;
use rubick_model::ExecutionPlan;
use rubick_obs::{DecisionKind, EventSink, SimEvent};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::mem;
use std::sync::Arc;

/// One run's event labels, each formatted and allocated once: every
/// event, decision and job record that names a plan, model, tenant or
/// class shares the table's `Arc<str>`. The engine owns one table and
/// drops it with itself, so runs share nothing.
#[derive(Debug, Default)]
pub(crate) struct Labels {
    plans: HashMap<ExecutionPlan, Arc<str>>,
    names: HashSet<Arc<str>>,
}

impl Labels {
    /// The shared label of `plan`; [`ExecutionPlan::label`] runs on its
    /// first request only.
    pub(crate) fn plan(&mut self, plan: &ExecutionPlan) -> Arc<str> {
        Arc::clone(
            self.plans
                .entry(*plan)
                .or_insert_with(|| plan.label().into()),
        )
    }

    /// The shared copy of a model, tenant or class name.
    pub(crate) fn name(&mut self, name: &str) -> Arc<str> {
        if let Some(label) = self.names.get(name) {
            return Arc::clone(label);
        }
        let label: Arc<str> = name.into();
        self.names.insert(Arc::clone(&label));
        label
    }
}

/// The [`SimEvent::JobSubmitted`] event for a job spec entering the queue,
/// naming its model by `model` (the job's interned model name).
pub(crate) fn submitted_event(
    spec: &JobSpec,
    at: f64,
    model: Arc<str>,
    labels: &mut Labels,
) -> SimEvent {
    SimEvent::JobSubmitted {
        at,
        job: spec.id,
        tenant: labels.name(&spec.tenant.0),
        class: labels.name(spec.class.label()),
        model,
        gpus: spec.requested.gpus,
        cpus: spec.requested.cpus,
        mem_gb: spec.requested.mem_gb,
        plan: labels.plan(&spec.initial_plan),
    }
}

/// The [`SimEvent::JobFinished`] event carrying a completed job's full
/// accounting record.
pub(crate) fn finished_event(record: &JobRecord, labels: &mut Labels) -> SimEvent {
    SimEvent::JobFinished {
        at: record.finish_time,
        job: record.id,
        tenant: labels.name(&record.tenant.0),
        class: labels.name(record.class.label()),
        model: Arc::clone(&record.model),
        submit_time: record.submit_time,
        first_start: record.first_start,
        reconfig_count: record.reconfig_count,
        reconfig_time: record.reconfig_time,
        reconfig_gpu_seconds: record.reconfig_gpu_seconds,
        gpu_seconds: record.gpu_seconds,
        runtime: record.runtime,
        target_batches: record.target_batches,
        baseline_throughput: record.baseline_throughput,
        avg_throughput: record.avg_throughput,
    }
}

/// Inverse of [`finished_event`]. Unknown class labels fold as
/// best-effort; engine-produced streams only ever carry the two `Display`
/// labels of [`JobClass`].
fn record_from_event(event: &SimEvent) -> Option<JobRecord> {
    if let SimEvent::JobFinished {
        at,
        job,
        tenant,
        class,
        model,
        submit_time,
        first_start,
        reconfig_count,
        reconfig_time,
        reconfig_gpu_seconds,
        gpu_seconds,
        runtime,
        target_batches,
        baseline_throughput,
        avg_throughput,
    } = event
    {
        Some(JobRecord {
            id: *job,
            model: Arc::clone(model),
            class: if &**class == "guaranteed" {
                JobClass::Guaranteed
            } else {
                JobClass::BestEffort
            },
            tenant: TenantId(tenant.to_string()),
            submit_time: *submit_time,
            first_start: *first_start,
            finish_time: *at,
            reconfig_count: *reconfig_count,
            reconfig_time: *reconfig_time,
            reconfig_gpu_seconds: *reconfig_gpu_seconds,
            gpu_seconds: *gpu_seconds,
            runtime: *runtime,
            target_batches: *target_batches,
            baseline_throughput: *baseline_throughput,
            avg_throughput: *avg_throughput,
        })
    } else {
        None
    }
}

/// Folds a [`SimEvent`] stream into a [`SimReport`].
///
/// This is the sink the engine itself uses to build its report; feeding it
/// the events forwarded by [`crate::Engine::run_with_sink`] (or parsed
/// back from a JSONL log) reproduces that report exactly, including the
/// chronological [`Decision`] audit trail.
#[derive(Debug, Default)]
pub struct ReportSink {
    jobs: Vec<JobRecord>,
    unfinished: BTreeSet<JobId>,
    makespan: f64,
    infeasible: u64,
    rounds: u64,
    model_refits: u64,
    decisions: Vec<Decision>,
}

impl ReportSink {
    /// An empty fold.
    pub fn new() -> Self {
        ReportSink::default()
    }

    /// Finishes the fold into a [`SimReport`] for `scheduler`, resetting
    /// the sink so it can fold another stream.
    ///
    /// Unfinished jobs are every submitted-but-not-finished job, in id
    /// order — exactly the set still active when the stream ended.
    pub fn take_report(&mut self, scheduler: &str) -> SimReport {
        SimReport {
            scheduler: scheduler.to_string(),
            jobs: mem::take(&mut self.jobs),
            unfinished: mem::take(&mut self.unfinished).into_iter().collect(),
            makespan: mem::replace(&mut self.makespan, 0.0),
            infeasible_assignments: mem::replace(&mut self.infeasible, 0),
            rounds: mem::replace(&mut self.rounds, 0),
            model_refits: mem::replace(&mut self.model_refits, 0),
            decisions: mem::take(&mut self.decisions),
        }
    }
}

impl EventSink for ReportSink {
    fn on_event(&mut self, event: &SimEvent) {
        match event {
            SimEvent::JobSubmitted { job, .. } => {
                self.unfinished.insert(*job);
            }
            SimEvent::RoundStarted { .. } | SimEvent::TickSkipped { .. } => {
                self.rounds += 1;
            }
            SimEvent::DecisionApplied {
                at,
                job,
                kind,
                gpus,
                plan,
                throughput,
            } => match kind {
                DecisionKind::Launch => self.decisions.push(Decision::Launch {
                    at: *at,
                    job: *job,
                    gpus: *gpus,
                    plan: Arc::clone(plan),
                    throughput: *throughput,
                }),
                DecisionKind::Preempt => self
                    .decisions
                    .push(Decision::Preempt { at: *at, job: *job }),
            },
            SimEvent::Reconfigured {
                at,
                job,
                gpus,
                plan,
                delay,
            } => self.decisions.push(Decision::Reconfigure {
                at: *at,
                job: *job,
                gpus: *gpus,
                plan: Arc::clone(plan),
                delay: *delay,
            }),
            SimEvent::LaunchFailed { at, job, reason } => {
                self.infeasible += 1;
                self.decisions.push(Decision::Reject {
                    at: *at,
                    job: *job,
                    reason: reason.clone(),
                });
            }
            SimEvent::JobFinished { at, job, .. } => {
                if let Some(record) = record_from_event(event) {
                    self.jobs.push(record);
                }
                self.unfinished.remove(job);
                self.makespan = self.makespan.max(*at);
                self.decisions.push(Decision::Finish { at: *at, job: *job });
            }
            // A cancelled job leaves the run without a completion record:
            // it is neither finished (no JobRecord, no makespan update)
            // nor unfinished (its owner withdrew it on purpose). Only the
            // audit trail remembers it.
            SimEvent::JobCancelled { at, job, .. } => {
                self.unfinished.remove(job);
                self.decisions.push(Decision::Cancel { at: *at, job: *job });
            }
            // Fault events (schema v2) carry degraded-mode context, not
            // per-job accounting: jobs evicted by a fault fold through the
            // reconfiguration counters of their JobFinished record, and the
            // fault-specific metrics live in `rubick_obs::FaultMetricsSink`
            // so chaos-free reports stay bit-identical.
            SimEvent::NodeFailed { .. }
            | SimEvent::NodeRecovered { .. }
            | SimEvent::JobPreemptedByFault { .. }
            | SimEvent::JobRestarted { .. } => {}
            // Incremental-planning statistics (schema v3) are a diagnostic
            // overlay: the round itself is already counted by the
            // RoundStarted arm above, so the fold stays bit-identical
            // whether or not the engine surfaces them.
            SimEvent::RoundPlanned { .. } => {}
            // Online refits (schema v5) fold to a bare counter: the
            // parameter payload is for the audit log, and refit-off runs
            // never see this arm, keeping their reports bit-identical.
            SimEvent::ModelRefit { .. } => {
                self.model_refits += 1;
            }
        }
    }
}
