//! Applying a policy's target assignments to the cluster.
//!
//! Two phases, both on job-table positions: first release every running
//! job whose assignment changed or disappeared (preemption; an empty
//! allocation counts as no assignment), then apply new configurations in
//! the scheduler's preference order. The first assignment naming a job
//! wins; later duplicates and unknown ids are ignored. Each applied
//! transition emits exactly one event — preemptions and first launches as
//! [`SimEvent::DecisionApplied`], plan/allocation changes as
//! [`SimEvent::Reconfigured`], and overcommitted or OOM-doomed assignments
//! as [`SimEvent::LaunchFailed`].

use super::*;
use rubick_obs::DecisionKind;

impl<'a> Engine<'a> {
    pub(super) fn apply(&mut self, targets: Vec<Assignment>, sink: &mut dyn EventSink) {
        // slot[pos]: the index in `targets` of the first assignment naming
        // the job at `pos` (later duplicates and unknown ids are ignored).
        let mut slot = std::mem::take(&mut self.slot);
        slot.resize(self.jobs.len(), None);
        for (t, a) in targets.iter().enumerate() {
            if let Some(i) = self.pos(a.job) {
                if slot[i].is_none() {
                    slot[i] = Some(t);
                }
            }
        }

        // Phase 1: release running jobs that are changed or preempted, and
        // flag (by target index) every job to configure. An empty
        // allocation counts as no assignment.
        let mut configure = std::mem::take(&mut self.to_configure);
        configure.resize(targets.len(), None);
        for (i, t) in slot.drain(..).enumerate() {
            let target = t
                .map(|t| (t, &targets[t]))
                .filter(|(_, a)| !a.allocation.is_empty());
            match (&self.jobs[i].status, target) {
                (
                    JobStatus::Running {
                        allocation, plan, ..
                    },
                    Some((_, a)),
                ) if a.allocation == *allocation && a.plan == *plan => {
                    // Unchanged: keep running, keep the pending finish event.
                }
                (JobStatus::Running { allocation, .. }, Some((t, _))) => {
                    self.cluster.release(allocation);
                    configure[t] = Some(i);
                }
                (JobStatus::Running { .. }, None) => {
                    // Preemption: back to the queue (progress is kept via
                    // the checkpoint; the restore cost is charged at the
                    // next launch).
                    let (allocation, plan) = self.preempt(i);
                    let plan = self.labels.plan(&plan);
                    self.emit(
                        sink,
                        SimEvent::DecisionApplied {
                            at: self.now,
                            job: self.jobs[i].id(),
                            kind: DecisionKind::Preempt,
                            gpus: allocation.gpus(),
                            plan,
                            throughput: 0.0,
                        },
                    );
                }
                (JobStatus::Queued, Some((t, _))) => configure[t] = Some(i),
                (JobStatus::Queued, None) => {}
            }
        }

        // Phase 2: apply new configurations in the scheduler's order.
        for (assignment, i) in targets.into_iter().zip(configure.drain(..)) {
            if let Some(i) = i {
                self.configure(i, assignment, sink);
            }
        }
        (self.slot, self.to_configure) = (slot, configure);
    }

    /// Launches (or relaunches) the job at position `i` with `assignment`,
    /// or returns it to the queue when the launch fails. Its previous
    /// allocation, if any, is already released.
    fn configure(&mut self, i: usize, assignment: Assignment, sink: &mut dyn EventSink) {
        let id = assignment.job;
        // Every configured job is marked changed, even when the snapshot
        // fields end up identical (e.g. a queued job whose launch fails
        // right back to queued): the scheduler's emitted memory may have
        // turned stale, and deltas must over-, never under-approximate.
        self.mark_changed(id);
        // Chaos: each launch attempt may fail transiently (a pure function
        // of job id and attempt number, so thread count and scheduling
        // order cannot change the outcome).
        if let Some(plan) = &self.chaos {
            let rt = &mut self.runtimes[i];
            let attempt = rt.launch_attempts;
            rt.launch_attempts += 1;
            if plan.launch_fails(id, attempt) {
                self.launch_failed(i, "injected transient launch failure".to_string(), sink);
                return;
            }
        }
        if let Err(e) = self.cluster.allocate(&assignment.allocation) {
            self.launch_failed(i, e.to_string(), sink);
            return;
        }
        let spec = Arc::clone(&self.jobs[i].spec);
        let restarted = self.runtimes[i].first_start.is_some();
        let placement = assignment.allocation.to_placement();
        let m =
            match self
                .oracle
                .measure(&spec.model, &assignment.plan, spec.global_batch, &placement)
            {
                Ok(m) => m,
                Err(e) => {
                    // The launch would OOM on the real cluster.
                    self.cluster.release(&assignment.allocation);
                    self.launch_failed(i, e.to_string(), sink);
                    return;
                }
            };
        // Chaos: synchronous training runs at the slowest worker, so a
        // straggler node caps the whole job; a fault-evicted job pays an
        // extra restart penalty on top of checkpoint-resume.
        let mut throughput = m.throughput;
        let mut straggler = 1.0_f64;
        let mut fault_penalty = 0.0;
        let mut fault_restart = false;
        if let Some(plan) = &self.chaos {
            let slow = assignment
                .allocation
                .per_node
                .iter()
                .filter(|(_, r)| r.gpus > 0)
                .map(|(n, _)| plan.slowdown(*n))
                .fold(1.0_f64, f64::min);
            throughput *= slow;
            straggler = slow;
            if self.runtimes[i].fault_evicted_at.is_some() {
                fault_restart = true;
                fault_penalty = plan.restart_penalty_secs();
            }
        }
        // Online refitting: the hook sees what telemetry would see — the
        // end-to-end iteration time after any straggler cap — plus the cap
        // itself so it can keep a sick node's slowdown out of the model
        // fit.
        let refit_outcome = match self.refit.as_mut() {
            Some(hook) => hook.observe(&crate::refit::RefitObservation {
                at: self.now,
                model: &spec.model.name,
                plan: &assignment.plan,
                placement: &placement,
                global_batch: spec.global_batch,
                iter_time: m.iter_time / straggler,
                straggler_factor: straggler,
            }),
            None => None,
        };
        let delay = if restarted {
            spec.checkpoint_resume_secs()
        } else {
            spec.cold_start_secs()
        } + fault_penalty;
        let gpus = assignment.allocation.gpus();
        let plan = self.labels.plan(&assignment.plan);
        let job = &mut self.jobs[i];
        let rt = &mut self.runtimes[i];
        rt.fault_evicted_at = None;
        let event = if restarted {
            job.reconfig_count += 1;
            rt.reconfig_time += delay;
            rt.reconfig_gpu_seconds += delay * gpus as f64;
            SimEvent::Reconfigured {
                at: self.now,
                job: id,
                gpus,
                plan: Arc::clone(&plan),
                delay,
            }
        } else {
            rt.first_start = Some(self.now);
            SimEvent::DecisionApplied {
                at: self.now,
                job: id,
                kind: DecisionKind::Launch,
                gpus,
                plan: Arc::clone(&plan),
                throughput,
            }
        };
        rt.epoch += 1;
        let epoch = rt.epoch;
        job.status = JobStatus::Running {
            allocation: assignment.allocation,
            plan: assignment.plan,
            throughput,
            resume_at: self.now + delay,
        };
        let finish =
            self.now + delay + job.remaining_batches * spec.global_batch as f64 / throughput;
        if fault_restart {
            self.emit(
                sink,
                SimEvent::JobRestarted {
                    at: self.now,
                    job: id,
                    gpus,
                    plan,
                    penalty: fault_penalty,
                },
            );
        }
        self.emit(sink, event);
        if let Some(outcome) = refit_outcome {
            self.refit_round_pending = true;
            let model = self.labels.name(&outcome.model);
            self.emit(
                sink,
                SimEvent::ModelRefit {
                    at: self.now,
                    model,
                    shift: outcome.shift,
                    old_params: rubick_obs::params_to_str(&outcome.old_params),
                    new_params: rubick_obs::params_to_str(&outcome.new_params),
                },
            );
        }
        self.queue.push(finish, EventKind::Finish(id, epoch));
    }

    /// Reports a failed launch of the job at position `i` and returns it to
    /// the queue.
    fn launch_failed(&mut self, i: usize, reason: String, sink: &mut dyn EventSink) {
        let job = self.jobs[i].id();
        self.emit(
            sink,
            SimEvent::LaunchFailed {
                at: self.now,
                job,
                reason,
            },
        );
        self.requeue(i);
    }
}
