//! The discrete-event simulation engine.
//!
//! Drives jobs through submit → (queued ⇄ running) → finished, calling the
//! policy on every submission and completion (and optionally on a periodic
//! tick), applying the returned target assignments, and charging
//! checkpoint-resume penalties for launches and reconfigurations. Actual
//! throughputs come from the ground-truth [`TestbedOracle`], so a policy
//! that mispredicts (e.g. assigns an OOM plan) is penalized exactly like it
//! would be on the real cluster: the launch fails and the job returns to
//! the queue.
//!
//! The job table holds only active (queued or running) jobs, so every
//! per-round walk is linear in the active set, not in the run's history. A
//! job that completes or is cancelled leaves the table; its id stays in
//! the done set, which answers duplicate-id checks and the finished count.
//! The table is the policy's input: its snapshots, sorted by id, are the
//! slice every round hands to [`Scheduler::schedule`], updated in place
//! rather than rebuilt.
//!
//! Every state transition emits exactly one [`SimEvent`] on the **event
//! spine** (see `rubick-obs`): the engine folds its own stream into the
//! [`SimReport`] via [`crate::report::ReportSink`], and
//! [`Engine::run_with_sink`] forwards the identical stream to any external
//! [`EventSink`] (JSONL logs, counters, test probes). Events carry only
//! simulation time, never wall-clock, so the stream of a deterministic
//! run is byte-identical at any thread count.
//!
//! Submodules:
//!
//! * [`event_queue`](self) — the time-ordered event heap with deterministic
//!   same-time tie-breaking.
//! * [`runtime`](self) — per-job progress and accounting between events.
//! * [`apply`](self) — turning a policy's target assignments into cluster
//!   state transitions (and their events).

mod apply;
mod event_queue;
mod runtime;

use crate::cluster::{Allocation, Cluster};
use crate::job::{JobId, JobSpec, JobStatus};
use crate::metrics::SimReport;
use crate::refit::RefitHook;
use crate::report::{self, ReportSink};
use crate::scheduler::{Assignment, JobDelta, JobSnapshot, Scheduler};
use crate::tenant::Tenant;
use event_queue::{EventKind, EventQueue};
use rubick_chaos::{FaultKind, FaultPlan};
use rubick_model::{ExecutionPlan, Placement};
use rubick_obs::{EventSink, NullSink, SimEvent};
use rubick_testbed::TestbedOracle;
use runtime::JobRuntime;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Periodic scheduling-round interval, seconds (`None` = only on
    /// submit/finish events). Rubick benefits from occasional rounds to
    /// re-expand running jobs as the cluster drains.
    pub round_interval: Option<f64>,
    /// Hard stop for the simulation clock, seconds.
    pub max_time: f64,
    /// Inert: nothing reads it, and rounds always run on one thread. It
    /// stays only because the frozen `benchmark/` package sets it;
    /// remove it together with that use.
    pub parallelism: Option<usize>,
    /// Emit a [`SimEvent::RoundPlanned`] after every round for schedulers
    /// that report [`crate::scheduler::RoundStats`]. Off by default so
    /// existing event streams (and golden traces) stay byte-identical.
    pub emit_round_planned: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            round_interval: Some(600.0),
            max_time: 120.0 * 24.0 * 3600.0,
            parallelism: None,
            emit_round_planned: false,
        }
    }
}

/// The simulator: wires a policy, a cluster and the ground-truth oracle.
///
/// ```no_run
/// use rubick_sim::{Cluster, Engine, EngineConfig};
/// use rubick_testbed::TestbedOracle;
///
/// let oracle = TestbedOracle::new(0);
/// # let scheduler: Box<dyn rubick_sim::Scheduler> = unimplemented!();
/// let mut engine = Engine::new(
///     &oracle,
///     scheduler,
///     Cluster::a800_testbed(),
///     vec![],
///     EngineConfig::default(),
/// );
/// let report = engine.run(vec![]);
/// println!("avg JCT: {:.1}s", report.avg_jct());
/// ```
pub struct Engine<'a> {
    oracle: &'a TestbedOracle,
    scheduler: Box<dyn Scheduler + 'a>,
    cluster: Cluster,
    tenants: Vec<Tenant>,
    config: EngineConfig,
    /// Active jobs only, sorted by strictly increasing id: a job leaves
    /// the table when it completes or is cancelled. This is the slice
    /// [`Scheduler::schedule`] receives.
    jobs: Vec<JobSnapshot>,
    /// The rest of each active job's bookkeeping, at the same position as
    /// its snapshot in `jobs`.
    runtimes: Vec<JobRuntime>,
    /// Ids of jobs that completed or were cancelled.
    done: BTreeSet<JobId>,
    queue: EventQueue,
    now: f64,
    tick_pending: bool,
    rounds: u64,
    fold: ReportSink,
    chaos: Option<FaultPlan>,
    /// Jobs whose snapshot-visible state mutated since the last scheduling
    /// round (drained into a [`JobDelta`] at round start).
    delta_changed: BTreeSet<JobId>,
    /// Jobs that finished (left the snapshot set) since the last round.
    delta_removed: BTreeSet<JobId>,
    /// Specs accepted by [`Engine::submit`] whose `Submit` event has not
    /// fired yet; drained as the clock reaches each submit time.
    pending: BTreeMap<JobId, JobSpec>,
    /// Consecutive deadlock-guard trips (active jobs, empty queue).
    stall_rounds: u32,
    /// Whether the fault timeline has been pushed into the queue.
    chaos_armed: bool,
    /// Optional online refit hook fed with every oracle measurement
    /// (see [`crate::refit`]); `None` leaves the engine byte-identical
    /// to builds that predate refitting.
    pub(super) refit: Option<Box<dyn RefitHook + 'a>>,
    /// Set when a hook reported a material model change this round; makes
    /// the engine force a follow-up re-planning round even without a
    /// periodic heartbeat.
    pub(super) refit_round_pending: bool,
}

/// What one [`Engine::step`] call did.
///
/// The stepped core makes the caller the owner of time: each call
/// processes at most one same-instant event batch, and the outcome tells
/// the driver whether to keep stepping (`Advanced`), wait for more input
/// (`Idle` / `Waiting`), or stop (`HorizonReached` / `Stalled`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepOutcome {
    /// One same-instant event batch was processed; the clock now reads
    /// `now`.
    Advanced {
        /// The simulation time after the batch.
        now: f64,
    },
    /// The earliest queued event lies beyond the caller's bound; nothing
    /// was consumed. `next` is when that event is due.
    Waiting {
        /// Simulation time of the earliest queued event.
        next: f64,
    },
    /// The queue is empty: nothing will happen until the caller injects
    /// more work ([`Engine::submit`] / [`Engine::cancel`]).
    Idle,
    /// The earliest queued event lies beyond `max_time`; the run is over.
    HorizonReached,
    /// The deadlock guard tripped: jobs remain active but repeated
    /// heartbeat rounds could not place any of them. Driving further is
    /// pointless.
    Stalled,
}

impl<'a> Engine<'a> {
    /// Creates an engine.
    pub fn new(
        oracle: &'a TestbedOracle,
        scheduler: Box<dyn Scheduler + 'a>,
        cluster: Cluster,
        tenants: Vec<Tenant>,
        config: EngineConfig,
    ) -> Self {
        Engine {
            oracle,
            scheduler,
            cluster,
            tenants,
            config,
            jobs: Vec::new(),
            runtimes: Vec::new(),
            done: BTreeSet::new(),
            queue: EventQueue::new(),
            now: 0.0,
            tick_pending: false,
            rounds: 0,
            fold: ReportSink::new(),
            chaos: None,
            delta_changed: BTreeSet::new(),
            delta_removed: BTreeSet::new(),
            pending: BTreeMap::new(),
            stall_rounds: 0,
            chaos_armed: false,
            refit: None,
            refit_round_pending: false,
        }
    }

    /// Records that `id`'s snapshot-visible state changed since the last
    /// round. Every engine transition that can alter a [`JobSnapshot`]
    /// field, the job's running allocation/plan, or its queued/running
    /// status must call this (or [`Engine::mark_removed`]).
    pub(crate) fn mark_changed(&mut self, id: JobId) {
        self.delta_changed.insert(id);
    }

    /// Records that `id` finished and left the snapshot set.
    fn mark_removed(&mut self, id: JobId) {
        self.delta_changed.remove(&id);
        self.delta_removed.insert(id);
    }

    /// Attaches an online refit hook: every oracle measurement taken while
    /// applying a configuration is pushed through it, and a reported
    /// material change emits a [`SimEvent::ModelRefit`] plus a forced
    /// re-planning round (see [`crate::refit`] for the contract). Without
    /// this call the engine's streams are byte-identical to pre-refit
    /// builds.
    pub fn set_refit_hook(&mut self, hook: Box<dyn RefitHook + 'a>) {
        self.refit = Some(hook);
    }

    /// Arms deterministic fault injection: the plan's node fault timeline
    /// enters the event queue at run start, stragglers scale measured
    /// throughputs, and launch attempts may fail transiently. Without this
    /// call the engine behaves exactly as before — no chaos branch emits
    /// events or touches the queue.
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Feeds one event to the engine's own report fold and the external
    /// sink, in that order. This is the *only* way engine state transitions
    /// become observable, so both consumers always see the same stream.
    fn emit(&mut self, sink: &mut dyn EventSink, event: SimEvent) {
        self.fold.on_event(&event);
        sink.on_event(&event);
    }

    /// Advances all running jobs' progress to time `t`.
    fn advance(&mut self, t: f64) {
        for (job, rt) in self.jobs.iter_mut().zip(&mut self.runtimes) {
            rt.advance_to(job, t);
        }
    }

    /// The position of active job `id` in the job table.
    fn pos(&self, id: JobId) -> Option<usize> {
        self.jobs.binary_search_by_key(&id, JobSnapshot::id).ok()
    }

    /// Checks the job table's shape: ids strictly increasing, one runtime
    /// per snapshot.
    fn debug_check_table(&self) {
        debug_assert_eq!(self.jobs.len(), self.runtimes.len(), "job table halves");
        debug_assert!(
            self.jobs.windows(2).all(|w| w[0].id() < w[1].id()),
            "job table ids not strictly increasing"
        );
    }

    /// Measures the SLA baseline: the throughput of the user-requested
    /// resources with the user-chosen plan.
    fn baseline_throughput(&self, spec: &JobSpec) -> Option<f64> {
        let shape = self.cluster.shape();
        let placement = Placement::spread(
            spec.requested.gpus.max(1),
            shape.gpus,
            spec.requested.cpus,
            spec.requested.mem_gb,
        );
        self.oracle.throughput(
            &spec.model,
            &spec.initial_plan,
            spec.global_batch,
            &placement,
        )
    }

    /// Runs one scheduling round and applies the target assignment.
    fn round(&mut self, sink: &mut dyn EventSink) {
        self.rounds += 1;
        if self.jobs.is_empty() {
            let round = self.rounds;
            self.emit(
                sink,
                SimEvent::TickSkipped {
                    at: self.now,
                    round,
                },
            );
            return;
        }
        let round = self.rounds;
        self.emit(
            sink,
            SimEvent::RoundStarted {
                at: self.now,
                round,
                active_jobs: self.jobs.len() as u64,
            },
        );
        // Hand the scheduler exactly the jobs that mutated since it last
        // ran. Drained (not cleared) only when a round actually reaches the
        // scheduler: skipped empty-snapshot ticks keep accumulating.
        let delta = JobDelta {
            changed: std::mem::take(&mut self.delta_changed)
                .into_iter()
                .collect(),
            removed: std::mem::take(&mut self.delta_removed)
                .into_iter()
                .collect(),
        };
        self.scheduler.notify_jobs(&delta);
        let started = Instant::now();
        let targets = self
            .scheduler
            .schedule(self.now, &self.jobs, &self.cluster, &self.tenants);
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        sink.on_round_latency(nanos);
        if self.config.emit_round_planned {
            if let Some(stats) = self.scheduler.last_round_stats() {
                self.emit(
                    sink,
                    SimEvent::RoundPlanned {
                        at: self.now,
                        round,
                        dirty: stats.dirty,
                        clean: stats.clean,
                        reused: stats.reused,
                        searched: stats.searched,
                        classified: stats.classified,
                    },
                );
            }
        }
        self.apply(targets, sink);
    }

    /// Evicts every running job holding resources on the failed `node`:
    /// the allocation is released, the job re-enters the queue (progress
    /// survives via its checkpoint) and one
    /// [`SimEvent::JobPreemptedByFault`] is emitted per victim, in job-id
    /// order.
    fn evict_jobs_on(&mut self, node: usize, sink: &mut dyn EventSink) {
        for i in 0..self.jobs.len() {
            let on_node = self.jobs[i]
                .allocation()
                .is_some_and(|a| a.per_node.iter().any(|(n, r)| *n == node && !r.is_zero()));
            if !on_node {
                continue;
            }
            let (allocation, plan) = self.preempt(i);
            self.runtimes[i].fault_evicted_at = Some(self.now);
            self.emit(
                sink,
                SimEvent::JobPreemptedByFault {
                    at: self.now,
                    job: self.jobs[i].id(),
                    node: node as u64,
                    gpus: allocation.gpus(),
                    plan: plan.label(),
                },
            );
        }
    }

    /// Returns the running job at position `i` to the queue and releases
    /// its allocation, which comes back with the plan it ran. The caller
    /// emits the transition's event.
    fn preempt(&mut self, i: usize) -> (Allocation, ExecutionPlan) {
        let job = &mut self.jobs[i];
        let JobStatus::Running {
            allocation, plan, ..
        } = std::mem::replace(&mut job.status, JobStatus::Queued)
        else {
            unreachable!("only running jobs are preempted")
        };
        job.queued_since = self.now;
        let id = job.id();
        self.runtimes[i].epoch += 1;
        self.cluster.release(&allocation);
        self.mark_changed(id);
        (allocation, plan)
    }

    /// Returns the job at position `i` to the queue, if it is not there
    /// already. Its allocation, if any, is already released.
    fn requeue(&mut self, i: usize) {
        let job = &mut self.jobs[i];
        if !job.status.is_queued() {
            job.status = JobStatus::Queued;
            job.queued_since = self.now;
            self.runtimes[i].epoch += 1;
        }
    }

    /// Takes `id` out of the job table, releasing its resources, and
    /// records it as done. Returns the job's final snapshot and runtime.
    fn retire(&mut self, id: JobId) -> Option<(JobSnapshot, JobRuntime)> {
        let i = self.pos(id)?;
        let job = self.jobs.remove(i);
        let rt = self.runtimes.remove(i);
        if let Some(allocation) = job.allocation() {
            self.cluster.release(allocation);
        }
        self.done.insert(id);
        self.mark_removed(id);
        Some((job, rt))
    }

    fn active_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// The current simulation time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The policy driving this engine, by name.
    pub fn scheduler_name(&self) -> &str {
        self.scheduler.name()
    }

    /// The simulation time of the earliest queued event, if any.
    pub fn next_event_time(&self) -> Option<f64> {
        self.queue.peek_time()
    }

    /// Jobs currently holding resources.
    pub fn running_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.status.is_running()).count()
    }

    /// Jobs waiting in the queue (submitted, not running, not finished),
    /// not counting submissions whose `Submit` event has not fired yet.
    pub fn queued_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.status.is_queued()).count()
    }

    /// Jobs that left the active set (completed or cancelled).
    pub fn finished_jobs(&self) -> usize {
        self.done.len()
    }

    /// Whether the engine has ever accepted `id` — pending submission,
    /// active, or already finished. Serve sessions use this to reject
    /// duplicate job ids at the protocol boundary.
    pub fn has_job(&self, id: JobId) -> bool {
        self.pending.contains_key(&id) || self.pos(id).is_some() || self.done.contains(&id)
    }

    /// Accepts a job: its `Submit` event enters the queue at
    /// `spec.submit_time`, clamped to the current clock so a submission
    /// arriving "in the past" of a live session fires on the next step
    /// instead of rewinding time.
    pub fn submit(&mut self, spec: JobSpec) {
        let at = spec.submit_time.max(self.now);
        self.queue.push(at, EventKind::Submit(spec.id));
        self.pending.insert(spec.id, spec);
    }

    /// Requests cancellation of `job` at simulation time `at` (clamped to
    /// the current clock). Cancelling an unknown or already-finished job
    /// is a silent no-op; cancelling before the job's `Submit` fired drops
    /// the submission without a trace in the event stream.
    pub fn cancel(&mut self, at: f64, job: JobId) {
        self.queue.push(at.max(self.now), EventKind::Cancel(job));
    }

    /// Pushes the armed fault timeline into the event queue, once. Called
    /// lazily on the first [`Engine::step`] so live sessions see faults
    /// too, and explicitly by [`Engine::run_with_sink`] so batch runs
    /// order chaos events after all submits exactly as before.
    fn arm_chaos(&mut self) {
        if self.chaos_armed {
            return;
        }
        self.chaos_armed = true;
        if let Some(plan) = &self.chaos {
            for fault in plan.timeline() {
                let kind = match fault.kind {
                    FaultKind::Down => EventKind::NodeDown(fault.node),
                    FaultKind::Up => EventKind::NodeUp(fault.node),
                };
                self.queue.push(fault.at, kind);
            }
        }
    }

    /// Processes the next same-instant event batch, if one is due.
    ///
    /// This is the resumable core the batch drivers ([`Engine::run`],
    /// [`Engine::run_with_sink`]) and live serve sessions are built on:
    /// the caller owns time advancement. With `bound = None` the engine
    /// consumes the earliest batch unconditionally; with `Some(t)` it
    /// refuses to advance past `t`, returning [`StepOutcome::Waiting`] —
    /// which lets a wall-clock driver interleave [`Engine::submit`] /
    /// [`Engine::cancel`] calls between steps deterministically.
    ///
    /// Every event processed is emitted to `sink` (and folded into the
    /// engine's own report), exactly as during a batch run.
    pub fn step(&mut self, bound: Option<f64>, sink: &mut dyn EventSink) -> StepOutcome {
        self.arm_chaos();
        let Some(head_time) = self.queue.peek_time() else {
            return StepOutcome::Idle;
        };
        if head_time > self.config.max_time {
            return StepOutcome::HorizonReached;
        }
        if let Some(bound) = bound {
            if head_time > bound {
                return StepOutcome::Waiting { next: head_time };
            }
        }
        let head = self.queue.pop().expect("peeked event exists");
        self.advance(head.time);
        self.now = head.time;
        let mut need_round = false;
        let mut batch = vec![head];
        while let Some(next) = self.queue.pop_at_or_before(self.now) {
            batch.push(next);
        }
        for ev in batch {
            match ev.kind {
                EventKind::Submit(id) => {
                    // A cancel that raced ahead of the submit removes the
                    // pending spec; the submission then never happened.
                    let Some(spec) = self.pending.remove(&id) else {
                        continue;
                    };
                    let baseline = self.baseline_throughput(&spec);
                    let submitted = report::submitted_event(&spec, self.now);
                    let (job, rt) = JobRuntime::submitted(Arc::new(spec), self.now, baseline);
                    match self.jobs.binary_search_by_key(&id, JobSnapshot::id) {
                        // A re-submitted active id replaces its entry.
                        Ok(i) => (self.jobs[i], self.runtimes[i]) = (job, rt),
                        Err(i) => {
                            self.jobs.insert(i, job);
                            self.runtimes.insert(i, rt);
                        }
                    }
                    self.mark_changed(id);
                    self.emit(sink, submitted);
                    need_round = true;
                }
                EventKind::Finish(id, epoch) => {
                    let Some(i) = self.pos(id) else {
                        continue; // stale: the job already left the table
                    };
                    if self.runtimes[i].epoch != epoch {
                        continue; // stale
                    }
                    let job = &self.jobs[i];
                    if job.remaining_batches <= 1e-6 {
                        let (job, rt) = self.retire(id).expect("job exists");
                        let record = rt.record(&job, self.now);
                        self.emit(sink, report::finished_event(&record));
                        need_round = true;
                    } else if let JobStatus::Running { throughput, .. } = job.status {
                        // Float drift: re-arm the finish event.
                        let batch_size = job.spec.global_batch as f64;
                        let t = self.now + job.remaining_batches * batch_size / throughput;
                        self.queue.push(t, EventKind::Finish(id, epoch));
                    }
                }
                EventKind::Tick => {
                    self.tick_pending = false;
                    need_round = true;
                }
                EventKind::Cancel(id) => {
                    if self.pending.remove(&id).is_some() {
                        // Withdrawn before submission: nothing was ever
                        // emitted for this job, so nothing is emitted now.
                        continue;
                    }
                    // Retiring the job drops it from the table, so stale
                    // Finish events, snapshots and the active-job count all
                    // skip it; the fold tells a cancellation apart by the
                    // JobCancelled event (no JobFinished is emitted, so the
                    // job appears in neither `jobs` nor `unfinished`).
                    let Some((job, _)) = self.retire(id) else {
                        continue; // unknown or already done: no-op
                    };
                    let (gpus, plan) = match &job.status {
                        JobStatus::Running {
                            allocation, plan, ..
                        } => (allocation.gpus(), plan.label()),
                        JobStatus::Queued => (0, String::new()),
                    };
                    self.emit(
                        sink,
                        SimEvent::JobCancelled {
                            at: self.now,
                            job: id,
                            gpus,
                            plan,
                        },
                    );
                    need_round = true;
                }
                EventKind::NodeDown(node) => {
                    if self.cluster.node_is_up(node) {
                        self.cluster.set_node_up(node, false);
                        self.emit(
                            sink,
                            SimEvent::NodeFailed {
                                at: self.now,
                                node: node as u64,
                            },
                        );
                        self.evict_jobs_on(node, sink);
                        self.scheduler
                            .notify(&crate::scheduler::ClusterDelta::NodeDown(node));
                        need_round = true;
                    }
                }
                EventKind::NodeUp(node) => {
                    if !self.cluster.node_is_up(node) {
                        self.cluster.set_node_up(node, true);
                        self.emit(
                            sink,
                            SimEvent::NodeRecovered {
                                at: self.now,
                                node: node as u64,
                            },
                        );
                        self.scheduler
                            .notify(&crate::scheduler::ClusterDelta::NodeUp(node));
                        need_round = true;
                    }
                }
            }
        }
        if need_round {
            self.round(sink);
        }
        self.debug_check_table();
        // A material refit bumped the registry version, so every cached
        // plan is stale; make sure a round actually happens to consume
        // that. The periodic heartbeat covers it when armed — otherwise
        // (event-driven runs, `round_interval: None`) schedule a one-shot
        // tick shortly after, advancing time strictly so a hook that
        // refits on every round cannot wedge the clock.
        if self.refit_round_pending {
            self.refit_round_pending = false;
            if self.config.round_interval.is_none() && self.active_jobs() > 0 {
                self.queue.push(self.now + 1.0, EventKind::Tick);
            }
        }
        // Keep a heartbeat while jobs are active.
        if self.active_jobs() > 0 {
            if let Some(interval) = self.config.round_interval {
                if !self.tick_pending {
                    self.tick_pending = true;
                    self.queue.push(self.now + interval, EventKind::Tick);
                }
            }
            // Deadlock guard: no future events but active jobs remain.
            if self.queue.is_empty() {
                self.stall_rounds += 1;
                if self.stall_rounds > 3 {
                    return StepOutcome::Stalled;
                }
                self.queue.push(self.now + 3600.0, EventKind::Tick);
                self.tick_pending = true;
            } else {
                self.stall_rounds = 0;
            }
        }
        StepOutcome::Advanced { now: self.now }
    }

    /// Finishes the fold into the run's [`SimReport`].
    ///
    /// The report is the fold of the event stream; the only fact the
    /// stream cannot carry is jobs whose Submit event never fired
    /// (simulation hit `max_time` first) — those are supplemented into
    /// [`SimReport::unfinished`] here.
    pub fn finish_report(&mut self) -> SimReport {
        let mut report = self.fold.take_report(self.scheduler.name());
        report.unfinished.extend(self.pending.keys().copied());
        report
    }

    /// Runs the whole workload to completion and reports the outcome.
    ///
    /// Jobs that cannot make progress by `max_time` (or for which the
    /// policy never finds a feasible configuration) are listed in
    /// [`SimReport::unfinished`].
    pub fn run(&mut self, specs: Vec<JobSpec>) -> SimReport {
        self.run_with_sink(specs, &mut NullSink)
    }

    /// Like [`Engine::run`], forwarding every simulation event to `sink`.
    ///
    /// A thin driver over the stepped core: every spec is submitted up
    /// front, then [`Engine::step`] runs unbounded until the queue drains
    /// (or the horizon / deadlock guard ends the run). The sink observes
    /// the exact stream the engine folds into the returned [`SimReport`],
    /// in emission order — folding the forwarded events through
    /// [`ReportSink`] reproduces the report. The caller owns the sink and
    /// is responsible for calling [`EventSink::flush`] after the run.
    pub fn run_with_sink(&mut self, specs: Vec<JobSpec>, sink: &mut dyn EventSink) -> SimReport {
        for spec in specs {
            self.submit(spec);
        }
        self.arm_chaos();
        while let StepOutcome::Advanced { .. } = self.step(None, sink) {}
        self.finish_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Allocation;
    use crate::job::JobClass;
    use crate::tenant::TenantId;
    use rubick_model::{ExecutionPlan, ModelSpec, Resources};

    /// A minimal FIFO gang scheduler: runs each queued job with its
    /// requested GPUs on the first node with room, never reconfiguring.
    struct Fifo;

    impl Scheduler for Fifo {
        fn name(&self) -> &str {
            "fifo-test"
        }

        fn schedule(
            &mut self,
            _now: f64,
            jobs: &[JobSnapshot],
            cluster: &Cluster,
            _tenants: &[Tenant],
        ) -> Vec<Assignment> {
            let mut free: Vec<Resources> = cluster.nodes().iter().map(|n| n.free).collect();
            let mut out = Vec::new();
            for job in jobs {
                if let JobStatus::Running {
                    allocation, plan, ..
                } = &job.status
                {
                    out.push(Assignment {
                        job: job.id(),
                        allocation: allocation.clone(),
                        plan: *plan,
                    });
                    continue;
                }
                let want = job.spec.requested;
                if let Some((node, f)) = free
                    .iter_mut()
                    .enumerate()
                    .find(|(_, f)| f.dominates(&want))
                {
                    *f -= want;
                    out.push(Assignment {
                        job: job.id(),
                        allocation: Allocation::on_node(node, want),
                        plan: job.spec.initial_plan,
                    });
                }
            }
            out
        }
    }

    fn job(id: JobId, submit: f64, batches: u64) -> JobSpec {
        let model = ModelSpec::roberta_large();
        JobSpec {
            id,
            global_batch: 64,
            submit_time: submit,
            target_batches: batches,
            requested: Resources::new(4, 16, 100.0),
            initial_plan: ExecutionPlan::dp(4),
            class: JobClass::Guaranteed,
            tenant: TenantId::default(),
            model,
        }
    }

    fn run_jobs(jobs: Vec<JobSpec>) -> SimReport {
        let oracle = TestbedOracle::new(1);
        let mut engine = Engine::new(
            &oracle,
            Box::new(Fifo),
            Cluster::new(2, rubick_model::NodeShape::a800()),
            vec![],
            EngineConfig::default(),
        );
        engine.run(jobs)
    }

    #[test]
    fn single_job_completes() {
        let report = run_jobs(vec![job(1, 0.0, 500)]);
        assert_eq!(report.jobs.len(), 1);
        assert!(report.unfinished.is_empty());
        let r = &report.jobs[0];
        assert!(r.jct() > 0.0);
        assert_eq!(r.reconfig_count, 0);
        assert!(r.first_start.is_some());
    }

    #[test]
    fn jct_matches_throughput_arithmetic() {
        let report = run_jobs(vec![job(1, 0.0, 1000)]);
        let r = &report.jobs[0];
        // JCT ≈ cold start + batches * batch / throughput.
        let oracle = TestbedOracle::new(1);
        let placement = Placement::single_node(4, 16, 100.0);
        let tput = oracle
            .throughput(
                &ModelSpec::roberta_large(),
                &ExecutionPlan::dp(4),
                64,
                &placement,
            )
            .unwrap();
        let expected = 15.0 + 1000.0 * 64.0 / tput;
        assert!(
            (r.jct() - expected).abs() / expected < 0.01,
            "jct {} vs expected {expected}",
            r.jct()
        );
    }

    #[test]
    fn queued_job_waits_for_capacity() {
        // Five 4-GPU jobs on 2×8 GPUs: the fifth queues until one finishes.
        let jobs: Vec<JobSpec> = (0..5).map(|i| job(i, 0.0, 500)).collect();
        let report = run_jobs(jobs);
        assert_eq!(report.jobs.len(), 5);
        let max_queue = report
            .jobs
            .iter()
            .map(|r| r.queueing_delay())
            .fold(0.0f64, f64::max);
        assert!(max_queue > 60.0, "someone must have queued: {max_queue}");
    }

    #[test]
    fn later_submissions_are_honored() {
        let report = run_jobs(vec![job(1, 0.0, 500), job(2, 5000.0, 500)]);
        assert_eq!(report.jobs.len(), 2);
        let r2 = report.jobs.iter().find(|r| r.id == 2).unwrap();
        assert!(r2.first_start.unwrap() >= 5000.0);
    }

    #[test]
    fn makespan_covers_all_jobs() {
        let report = run_jobs(vec![job(1, 0.0, 300), job(2, 100.0, 300)]);
        let last = report
            .jobs
            .iter()
            .map(|r| r.finish_time)
            .fold(0.0f64, f64::max);
        assert_eq!(report.makespan, last);
    }

    #[test]
    fn infeasible_request_reports_unfinished() {
        // Request more GPUs than any node has, with a FIFO that can't split.
        let mut j = job(1, 0.0, 100);
        j.requested = Resources::new(64, 16, 100.0);
        let report = run_jobs(vec![j]);
        assert!(report.jobs.is_empty());
        assert_eq!(report.unfinished, vec![1]);
    }

    #[test]
    fn sla_met_for_exact_allocation() {
        let report = run_jobs(vec![job(1, 0.0, 500)]);
        assert_eq!(report.sla_attainment(), 1.0);
    }

    fn engine(oracle: &TestbedOracle) -> Engine<'_> {
        Engine::new(
            oracle,
            Box::new(Fifo),
            Cluster::new(2, rubick_model::NodeShape::a800()),
            vec![],
            EngineConfig::default(),
        )
    }

    #[test]
    fn stepped_drive_reproduces_batch_run() {
        let oracle = TestbedOracle::new(1);
        let specs = vec![job(1, 0.0, 300), job(2, 50.0, 300), job(3, 5000.0, 200)];

        let mut batch_sink = rubick_obs::VecSink::default();
        let batch_report = engine(&oracle).run_with_sink(specs.clone(), &mut batch_sink);

        // Caller-owned loop: submit everything, then step with a finite
        // bound, advancing the bound to the next event when told to wait —
        // the stream and report must be identical to the batch driver's.
        let mut stepped = engine(&oracle);
        let mut step_sink = rubick_obs::VecSink::default();
        for spec in specs {
            stepped.submit(spec);
        }
        let mut bound = 0.0;
        let report = loop {
            match stepped.step(Some(bound), &mut step_sink) {
                StepOutcome::Advanced { now } => assert!(now <= bound + 1e-9),
                StepOutcome::Waiting { next } => {
                    assert!(next > bound);
                    bound = next;
                }
                StepOutcome::Idle | StepOutcome::HorizonReached | StepOutcome::Stalled => {
                    break stepped.finish_report();
                }
            }
        };
        assert_eq!(step_sink.events, batch_sink.events);
        assert_eq!(report, batch_report);
    }

    #[test]
    fn step_outcomes_report_engine_state() {
        let oracle = TestbedOracle::new(1);
        let mut e = engine(&oracle);
        let mut sink = NullSink;
        // Nothing queued: idle.
        assert_eq!(e.step(None, &mut sink), StepOutcome::Idle);
        e.submit(job(1, 100.0, 300));
        assert_eq!(e.next_event_time(), Some(100.0));
        // Bounded below the first event: waiting, nothing consumed.
        assert_eq!(
            e.step(Some(50.0), &mut sink),
            StepOutcome::Waiting { next: 100.0 }
        );
        assert_eq!(e.now(), 0.0);
        // Unbounded: the submit batch processes and launches the job.
        assert_eq!(
            e.step(None, &mut sink),
            StepOutcome::Advanced { now: 100.0 }
        );
        assert_eq!(e.running_jobs(), 1);
        assert_eq!(e.queued_jobs(), 0);
        // An event beyond max_time ends the run.
        let horizon = e.config.max_time + 1.0;
        e.cancel(horizon, 1);
        while e.next_event_time().unwrap() <= e.config.max_time {
            assert!(matches!(
                e.step(None, &mut sink),
                StepOutcome::Advanced { .. }
            ));
        }
        assert_eq!(e.step(None, &mut sink), StepOutcome::HorizonReached);
    }

    #[test]
    fn cancel_running_job_releases_resources() {
        let oracle = TestbedOracle::new(1);
        let mut e = engine(&oracle);
        let mut sink = rubick_obs::VecSink::default();
        // Fill both nodes: jobs 1..4 run, job 5 queues.
        for i in 1..=5 {
            e.submit(job(i, 0.0, 5000));
        }
        assert!(matches!(
            e.step(None, &mut sink),
            StepOutcome::Advanced { .. }
        ));
        assert_eq!(e.running_jobs(), 4);
        assert_eq!(e.queued_jobs(), 1);
        // Cancel a running job: its GPUs free up and the queued job starts.
        e.cancel(e.now() + 1.0, 1);
        assert!(matches!(
            e.step(None, &mut sink),
            StepOutcome::Advanced { .. }
        ));
        assert_eq!(e.running_jobs(), 4);
        assert_eq!(e.queued_jobs(), 0);
        let cancelled = sink
            .events
            .iter()
            .find(|ev| matches!(ev, SimEvent::JobCancelled { job: 1, .. }))
            .expect("cancel event emitted");
        match cancelled {
            SimEvent::JobCancelled { gpus, plan, .. } => {
                assert_eq!(*gpus, 4);
                assert!(!plan.is_empty());
            }
            _ => unreachable!(),
        }
        // Drive to completion: the cancelled job is in neither the records
        // nor the unfinished list, but the audit trail remembers it.
        while matches!(e.step(None, &mut sink), StepOutcome::Advanced { .. }) {}
        let report = e.finish_report();
        assert!(report.jobs.iter().all(|r| r.id != 1));
        assert_eq!(report.jobs.len(), 4);
        assert!(report.unfinished.is_empty());
        assert!(report
            .decisions
            .iter()
            .any(|d| matches!(d, crate::metrics::Decision::Cancel { job: 1, .. })));
    }

    #[test]
    fn cancel_before_submit_drops_silently() {
        let oracle = TestbedOracle::new(1);
        let mut e = engine(&oracle);
        let mut sink = rubick_obs::VecSink::default();
        e.submit(job(1, 0.0, 300));
        e.submit(job(2, 500.0, 300));
        e.cancel(100.0, 2); // before job 2's submit fires
        e.cancel(100.0, 99); // unknown id: no-op
        while matches!(e.step(None, &mut sink), StepOutcome::Advanced { .. }) {}
        let report = e.finish_report();
        // Job 2 never existed as far as the stream is concerned.
        assert!(sink.events.iter().all(|ev| !matches!(
            ev,
            SimEvent::JobSubmitted { job: 2, .. } | SimEvent::JobCancelled { .. }
        )));
        assert_eq!(report.jobs.len(), 1);
        assert!(report.unfinished.is_empty());
    }

    #[test]
    fn cancel_after_finish_is_a_noop() {
        let oracle = TestbedOracle::new(1);
        let mut e = engine(&oracle);
        let mut sink = rubick_obs::VecSink::default();
        e.submit(job(1, 0.0, 100));
        while matches!(e.step(None, &mut sink), StepOutcome::Advanced { .. }) {}
        let finished_events = sink.events.len();
        e.cancel(e.now() + 1.0, 1);
        while matches!(e.step(None, &mut sink), StepOutcome::Advanced { .. }) {}
        // The late cancel emits nothing (stream unchanged bar no events).
        assert!(sink.events[finished_events..]
            .iter()
            .all(|ev| !matches!(ev, SimEvent::JobCancelled { .. })));
    }

    #[test]
    fn sink_observes_the_folded_stream() {
        let oracle = TestbedOracle::new(1);
        let mut engine = Engine::new(
            &oracle,
            Box::new(Fifo),
            Cluster::new(2, rubick_model::NodeShape::a800()),
            vec![],
            EngineConfig::default(),
        );
        let mut sink = rubick_obs::VecSink::default();
        let report = engine.run_with_sink(vec![job(1, 0.0, 300), job(2, 50.0, 300)], &mut sink);
        // Folding the forwarded stream reproduces the engine's report.
        let mut fold = ReportSink::new();
        for ev in &sink.events {
            fold.on_event(ev);
        }
        assert_eq!(fold.take_report("fifo-test"), report);
        // Events are time-ordered and bracket the run.
        assert!(sink
            .events
            .windows(2)
            .all(|w| w[0].at() <= w[1].at() + 1e-9));
        assert!(matches!(
            sink.events.first(),
            Some(SimEvent::JobSubmitted { job: 1, .. })
        ));
        // The final finish triggers one last (empty-snapshot) round.
        assert!(matches!(
            sink.events.last(),
            Some(SimEvent::TickSkipped { .. })
        ));
        assert!(sink
            .events
            .iter()
            .any(|e| matches!(e, SimEvent::JobFinished { job: 2, .. })));
    }
}
