//! Applying a policy's target assignments to the cluster.
//!
//! Two phases: first release every running job whose assignment changed or
//! disappeared (preemption), then apply new configurations in the
//! scheduler's preference order. Each applied transition emits exactly one
//! event — preemptions and first launches as
//! [`SimEvent::DecisionApplied`], plan/allocation changes as
//! [`SimEvent::Reconfigured`], and overcommitted or OOM-doomed assignments
//! as [`SimEvent::LaunchFailed`].

use super::*;
use rubick_obs::DecisionKind;

impl<'a> Engine<'a> {
    pub(super) fn apply(&mut self, targets: Vec<Assignment>, sink: &mut dyn EventSink) {
        let mut target_map: BTreeMap<JobId, Assignment> = BTreeMap::new();
        let mut order: Vec<JobId> = Vec::new();
        for a in targets {
            if self.jobs.contains_key(&a.job) && !target_map.contains_key(&a.job) {
                order.push(a.job);
                target_map.insert(a.job, a);
            }
        }

        // Phase 1: release running jobs that are changed or preempted.
        let ids: Vec<JobId> = self.jobs.keys().copied().collect();
        let mut to_configure: Vec<JobId> = Vec::new();
        for id in ids {
            let rt = self.jobs.get_mut(&id).expect("job exists");
            match (&rt.status, target_map.get(&id)) {
                (
                    JobStatus::Running {
                        allocation, plan, ..
                    },
                    Some(a),
                ) if a.allocation == *allocation && a.plan == *plan => {
                    // Unchanged: keep running, keep the pending finish event.
                }
                (JobStatus::Running { allocation, .. }, Some(_)) => {
                    let alloc = allocation.clone();
                    self.cluster.release(&alloc);
                    to_configure.push(id);
                }
                (
                    JobStatus::Running {
                        allocation, plan, ..
                    },
                    None,
                ) => {
                    // Preemption: back to the queue (progress is kept via
                    // the checkpoint; the restore cost is charged at the
                    // next launch).
                    let alloc = allocation.clone();
                    let plan = plan.label();
                    self.cluster.release(&alloc);
                    rt.status = JobStatus::Queued;
                    rt.queued_since = self.now;
                    rt.epoch += 1;
                    self.mark_changed(id);
                    self.emit(
                        sink,
                        SimEvent::DecisionApplied {
                            at: self.now,
                            job: id,
                            kind: DecisionKind::Preempt,
                            gpus: alloc.gpus(),
                            plan,
                            throughput: 0.0,
                        },
                    );
                }
                (JobStatus::Queued, Some(_)) => to_configure.push(id),
                _ => {}
            }
        }

        // Phase 2: apply new configurations in the scheduler's order.
        to_configure.sort_by_key(|id| order.iter().position(|o| o == id));
        for id in to_configure {
            // Every configured job is marked changed, even when the
            // snapshot fields end up identical (e.g. a queued job whose
            // launch fails right back to queued): the scheduler's emitted
            // memory may have turned stale, and deltas must over-, never
            // under-approximate.
            self.mark_changed(id);
            let assignment = target_map.get(&id).expect("targeted job").clone();
            if assignment.allocation.is_empty() {
                self.queue_job(id);
                continue;
            }
            // Chaos: each launch attempt may fail transiently (a pure
            // function of job id and attempt number, so thread count and
            // scheduling order cannot change the outcome).
            if let Some(plan) = &self.chaos {
                let rt = self.jobs.get_mut(&id).expect("job exists");
                let attempt = rt.launch_attempts;
                rt.launch_attempts += 1;
                if plan.launch_fails(id, attempt) {
                    self.emit(
                        sink,
                        SimEvent::LaunchFailed {
                            at: self.now,
                            job: id,
                            reason: "injected transient launch failure".to_string(),
                        },
                    );
                    self.queue_job(id);
                    continue;
                }
            }
            if let Err(e) = self.cluster.allocate(&assignment.allocation) {
                self.emit(
                    sink,
                    SimEvent::LaunchFailed {
                        at: self.now,
                        job: id,
                        reason: e.to_string(),
                    },
                );
                self.queue_job(id);
                continue;
            }
            let (spec, remaining, restarted) = {
                let rt = self.jobs.get(&id).expect("job exists");
                (Arc::clone(&rt.spec), rt.remaining, rt.first_start.is_some())
            };
            let placement = assignment.allocation.to_placement();
            match self
                .oracle
                .measure(&spec.model, &assignment.plan, spec.global_batch, &placement)
            {
                Ok(m) => {
                    // Chaos: synchronous training runs at the slowest
                    // worker, so a straggler node caps the whole job; a
                    // fault-evicted job pays an extra restart penalty on
                    // top of checkpoint-resume.
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
                        let rt = self.jobs.get(&id).expect("job exists");
                        if rt.fault_evicted_at.is_some() {
                            fault_restart = true;
                            fault_penalty = plan.restart_penalty_secs();
                        }
                    }
                    // Online refitting: the hook sees what telemetry would
                    // see — the end-to-end iteration time after any
                    // straggler cap — plus the cap itself so it can keep a
                    // sick node's slowdown out of the model fit.
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
                    let plan = assignment.plan.label();
                    let rt = self.jobs.get_mut(&id).expect("job exists");
                    rt.fault_evicted_at = None;
                    let event = if restarted {
                        rt.reconfig_count += 1;
                        rt.reconfig_time += delay;
                        rt.reconfig_gpu_seconds += delay * gpus as f64;
                        SimEvent::Reconfigured {
                            at: self.now,
                            job: id,
                            gpus,
                            plan: plan.clone(),
                            delay,
                        }
                    } else {
                        rt.first_start = Some(self.now);
                        SimEvent::DecisionApplied {
                            at: self.now,
                            job: id,
                            kind: DecisionKind::Launch,
                            gpus,
                            plan: plan.clone(),
                            throughput,
                        }
                    };
                    rt.epoch += 1;
                    let epoch = rt.epoch;
                    rt.status = JobStatus::Running {
                        allocation: assignment.allocation.clone(),
                        plan: assignment.plan,
                        throughput,
                        resume_at: self.now + delay,
                    };
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
                        self.emit(
                            sink,
                            SimEvent::ModelRefit {
                                at: self.now,
                                model: outcome.model,
                                shift: outcome.shift,
                                old_params: rubick_obs::params_to_str(&outcome.old_params),
                                new_params: rubick_obs::params_to_str(&outcome.new_params),
                            },
                        );
                    }
                    let finish =
                        self.now + delay + remaining * spec.global_batch as f64 / throughput;
                    self.queue.push(finish, EventKind::Finish(id, epoch));
                }
                Err(e) => {
                    // The launch would OOM on the real cluster.
                    self.cluster.release(&assignment.allocation);
                    self.emit(
                        sink,
                        SimEvent::LaunchFailed {
                            at: self.now,
                            job: id,
                            reason: e.to_string(),
                        },
                    );
                    self.queue_job(id);
                }
            }
        }
    }
}
