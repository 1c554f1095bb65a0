//! Incremental dirty-set round planning for the Rubick policy.
//!
//! A full Rubick round re-runs the Algorithm 1 plan search for every job,
//! even in the (overwhelmingly common) steady state where nothing changed
//! since the previous round. The [`DirtyTracker`] keeps a fingerprint of
//! every job's planning inputs plus a bit-exact projection of the free
//! ledger, and partitions the next round's jobs into:
//!
//! * **dirty** — something about the job (or a running job, or the
//!   cluster) changed; re-run the plan search exactly as before;
//! * **clean** — the job is unchanged; its previous visit was a no-op in
//!   the context of the previous round's state, so the skip is valid only
//!   while this round's state is still bit-identical to that one: the
//!   previous round must have been *quiet* (no lasting mutation), the
//!   ledger must equal the projection, no running job may be dirty, and
//!   nothing may have mutated the state yet this round (no changed flag
//!   set in the table). Any of the first three failing demotes every
//!   clean job; the last is checked per visit.
//!
//! There is no force flag: a node going down or up moves its schedulable
//! capacity, which is part of the [`Epoch`], and a node that fails and
//! recovers between two rounds evicts its jobs, which marks them changed
//! and leaves the ledger off its projection.
//!
//! When every job is clean, the previous round was quiet and the ledger
//! matches, the round takes a **fast path**: no per-job context is built,
//! no passes run, and the previous round's (verbatim) assignments are
//! re-emitted. The invariant that makes all of this sound is spelled out
//! in `DESIGN.md` §11.
//!
//! **Delta-driven classification** (DESIGN.md §11): the engine tracks
//! which job snapshots mutated between rounds and hands the set over via
//! [`Scheduler::notify_jobs`](rubick_sim::Scheduler::notify_jobs). When a
//! delta is pending, classification compares fingerprints only for the
//! delta's jobs plus the *frozen-bit suspects* — stored running jobs whose
//! reconfiguration-penalty gate may have flipped as their runtime grew,
//! the single fingerprint field that evolves without an engine-side state
//! transition. Every other stored job is trusted clean, so a quiet round
//! classifies O(changed + running) jobs instead of O(jobs). The delta may
//! over-approximate: an id it names that is not in the slice (a job that
//! changed, then finished) is skipped, and a job that left is caught by
//! scanning the stored fingerprints for ids the slice lacks. The full
//! fingerprint pass serves only callers that push no delta (hand-wired
//! tests and benches) and debug builds' cross-check of every delta-driven
//! verdict.
//!
//! Classification state is flat: verdicts live in a `Vec` parallel to the
//! jobs slice, history in sorted vecs probed by binary search, and job →
//! position lookups go through the round's [`JobIndex`], which the
//! scheduler owns and lends to [`DirtyTracker::classify`].
//!
//! Fingerprints deliberately *exclude* monotone-decreasing inputs
//! (`remaining_batches`, and through it a victim's remaining seconds, and
//! the amortization guard's `samples_left`): a search that rolled back
//! last round can only roll back harder as those shrink, and a victim
//! that was not stolen from cannot become *more* attractive by
//! approaching completion (the about-to-finish filter only removes the
//! cheapest victim, leaving strictly costlier ones).

use crate::common::JobIndex;
use rubick_model::{ExecutionPlan, Resources};
use rubick_sim::cluster::Allocation;
use rubick_sim::job::{JobId, JobStatus};
use rubick_sim::scheduler::{Assignment, JobDelta, JobSnapshot, RoundStats};
use rubick_sim::tenant::Tenant;

/// Everything the plan search reads that is *not* per-job: the fitted
/// model registry (tracked by its monotone version counter), the cluster
/// geometry and the tenant quotas. An epoch mismatch invalidates every
/// certificate at once.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Epoch {
    /// [`ModelRegistry::version`](crate::ModelRegistry::version) at the
    /// start of the round — any refit or model insertion bumps it.
    pub(crate) registry_version: u64,
    /// Per-node schedulable capacity (zero for down nodes). Its GPU sum is
    /// the cluster's schedulable GPU count, which norms, `g_star` and
    /// curves read, so equal capacities imply an equal count.
    pub(crate) node_caps: Vec<Resources>,
    /// Tenant quotas, compared structurally.
    pub(crate) tenants: Vec<Tenant>,
}

/// Per-job fingerprint of every snapshot field the plan search reads,
/// *except* the monotone-safe ones (see the module docs). Float fields
/// are compared bit-exactly via their IEEE-754 representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    running: bool,
    queued_since: u64,
    reconfig_count: u32,
    /// Measured throughput while running (`0` for queued jobs) — a change
    /// means the engine applied a reconfiguration or a fault scaled the
    /// job, either of which shifts victim economics for everyone.
    throughput: u64,
    /// The reconfiguration-penalty gate's verdict this round. It depends
    /// on `runtime`, which grows every round, so the *bit* is stored, not
    /// the inputs: the fingerprint only changes when the gate flips. This
    /// is the one field that can change without an engine transition, so
    /// the delta path re-checks it for every stored running job.
    frozen: bool,
}

impl Fingerprint {
    fn of(snap: &JobSnapshot, reconfig_threshold: f64) -> Self {
        let running = snap.status.is_running();
        let throughput = match &snap.status {
            JobStatus::Running { throughput, .. } => throughput.to_bits(),
            _ => 0,
        };
        Fingerprint {
            running,
            queued_since: snap.queued_since.to_bits(),
            reconfig_count: snap.reconfig_count,
            throughput,
            frozen: running && !snap.reconfig_allowed(reconfig_threshold),
        }
    }
}

/// How this round's jobs partition, as decided by
/// [`DirtyTracker::classify`]. Verdicts are stored positionally, parallel
/// to the jobs slice; the demotion of every clean job is a flag folded in
/// by [`Classification::clean`] instead of a set move.
#[derive(Debug, Default)]
pub(crate) struct Classification {
    /// Whether the job at each slice position is clean, before demotion.
    clean: Vec<bool>,
    demoted: bool,
    /// Whether the stored epoch matched (skip certificates are usable).
    /// The policy consumes this indirectly through the verdicts (a
    /// mismatch marks everything dirty); tests pin it directly.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) epoch_matched: bool,
    /// Fingerprint comparisons performed: O(changed + running) on the
    /// delta path, O(jobs) on the fallback, 0 on an epoch mismatch.
    pub(crate) classified: u64,
    /// All clean and no vanished jobs: undemoted, the round may
    /// fast-path.
    fast_base: bool,
}

impl Classification {
    /// Whether the job at slice position `pos` is clean, demotion applied.
    pub(crate) fn clean(&self, pos: usize) -> bool {
        !self.demoted && self.clean[pos]
    }

    /// Whether the round may take the verbatim re-emit fast path.
    pub(crate) fn fast_eligible(&self) -> bool {
        self.fast_base && !self.demoted
    }

    /// Effective dirty-job count, demotion included.
    pub(crate) fn dirty_len(&self) -> u64 {
        if self.demoted {
            self.clean.len() as u64
        } else {
            self.clean.iter().filter(|&&c| !c).count() as u64
        }
    }

    /// Effective clean-job count, demotion included.
    pub(crate) fn clean_len(&self) -> u64 {
        self.clean.len() as u64 - self.dirty_len()
    }
}

/// End-of-round memory of the incremental planner: fingerprints, the
/// emitted assignments, a bit-exact projection of the next round's
/// post-`charge_running` free ledger, and the epoch they were all
/// recorded under. History lives in `JobId`-sorted flat vecs —
/// binary-search probes, cache-friendly rebuilds.
#[derive(Default)]
pub(crate) struct DirtyTracker {
    /// `(id, fingerprint)` sorted by id.
    fingerprints: Vec<(JobId, Fingerprint)>,
    /// What was handed to the engine last round, sorted by id. Used for
    /// the emitted-consistency check: a running job whose snapshot does
    /// not match what we emitted (or a queued job we *did* emit for —
    /// a failed launch) is dirty.
    emitted: Vec<(JobId, (Allocation, ExecutionPlan))>,
    /// Projected per-node free ledger for the next round, computed with
    /// the same `free[n] -= r` op sequence as `RoundContext::new` +
    /// `charge_running` so equality is bit-exact.
    projected_free: Vec<Resources>,
    /// Whether the last round ended with no changed flag set.
    prev_round_quiet: bool,
    epoch: Option<Epoch>,
    /// Accumulated [`JobDelta`] from
    /// [`Scheduler::notify_jobs`](rubick_sim::Scheduler::notify_jobs);
    /// consumed by the next classify. `None` means no delta was supplied
    /// and classification falls back to the full fingerprint pass.
    pending_delta: Option<JobDelta>,
    /// Statistics of the most recent round, surfaced through
    /// [`Scheduler::last_round_stats`](rubick_sim::Scheduler::last_round_stats).
    stats: Option<RoundStats>,
}

impl DirtyTracker {
    /// A tracker with no history: the first round classifies everything
    /// dirty.
    pub(crate) fn new() -> Self {
        DirtyTracker::default()
    }

    /// Accumulates an engine-supplied job delta for the next classify.
    /// Multiple notifications between rounds merge (sorted union).
    pub(crate) fn push_delta(&mut self, delta: &JobDelta) {
        match &mut self.pending_delta {
            None => self.pending_delta = Some(delta.clone()),
            Some(d) => merge_sorted(&mut d.changed, &delta.changed),
        }
    }

    /// Statistics of the most recent round, if one ran incrementally.
    pub(crate) fn stats(&self) -> Option<RoundStats> {
        self.stats
    }

    /// Stores this round's statistics.
    pub(crate) fn set_stats(&mut self, stats: RoundStats) {
        self.stats = Some(stats);
    }

    fn fingerprint_of(&self, id: JobId) -> Option<&Fingerprint> {
        self.fingerprints
            .binary_search_by_key(&id, |&(id, _)| id)
            .ok()
            .map(|i| &self.fingerprints[i].1)
    }

    fn emitted_of(&self, id: JobId) -> Option<&(Allocation, ExecutionPlan)> {
        self.emitted
            .binary_search_by_key(&id, |(id, _)| *id)
            .ok()
            .map(|i| &self.emitted[i].1)
    }

    /// Partitions `jobs`, whose positions `index` maps, by comparing
    /// fingerprints and the epoch, using a pending engine delta when one
    /// was supplied and the full fingerprint pass otherwise. Every clean
    /// job is demoted when `free`, the round's post-`charge_running`
    /// ledger, differs from the projection in length or in any node's `==`
    /// (one ULP of memory counts): any growth gives a search something to
    /// grab, and any shrink can starve one.
    ///
    /// Consumes the pending delta: a job delta describes exactly one
    /// inter-round window.
    pub(crate) fn classify(
        &mut self,
        jobs: &[JobSnapshot],
        index: &JobIndex,
        epoch_now: &Epoch,
        free: &[Resources],
        reconfig_threshold: f64,
    ) -> Classification {
        let delta = self.pending_delta.take();
        if self.epoch.as_ref() != Some(epoch_now) {
            // No certificate survives; re-plan everything from scratch.
            return Classification {
                clean: vec![false; jobs.len()],
                ..Classification::default()
            };
        }

        let vanished = self
            .fingerprints
            .iter()
            .any(|&(id, _)| index.get(id).is_none());
        let (clean, any_running_dirty, classified) = match &delta {
            Some(d) => {
                let out = self.classify_delta(jobs, index, d, reconfig_threshold);
                #[cfg(debug_assertions)]
                {
                    let (ref_clean, ref_ard, _) = self.classify_fallback(jobs, reconfig_threshold);
                    debug_assert_eq!(
                        out.0, ref_clean,
                        "delta-driven verdicts diverge from the fingerprint pass \
                         (the engine under-reported a change)"
                    );
                    debug_assert_eq!(out.1, ref_ard, "delta path missed a dirty running job");
                }
                out
            }
            None => self.classify_fallback(jobs, reconfig_threshold),
        };

        let all_clean = clean.iter().all(|&c| c);
        Classification {
            clean,
            // A dirty *running* job shifts victim economics (and possibly
            // quota accounting) for every other search. Ditto when the
            // previous round mutated state mid-pass or the ledger moved:
            // the clean certificates were taken against a state this round
            // does not reproduce.
            demoted: any_running_dirty || !self.prev_round_quiet || free != self.projected_free,
            epoch_matched: true,
            classified,
            fast_base: all_clean && !vanished,
        }
    }

    /// Whether a job is clean under the full fingerprint +
    /// emitted-consistency check, and whether it is a dirty running job.
    /// Pure in (`self`, snapshot).
    fn classify_one(&self, snap: &JobSnapshot, reconfig_threshold: f64) -> (bool, bool) {
        let fp = Fingerprint::of(snap, reconfig_threshold);
        let clean = self.fingerprint_of(snap.id()) == Some(&fp) && self.emitted_consistent(snap);
        (clean, !clean && snap.status.is_running())
    }

    /// The full fingerprint pass over every job.
    fn classify_fallback(
        &self,
        jobs: &[JobSnapshot],
        reconfig_threshold: f64,
    ) -> (Vec<bool>, bool, u64) {
        let mut any_running_dirty = false;
        let clean = jobs
            .iter()
            .map(|snap| {
                let (clean, running_dirty) = self.classify_one(snap, reconfig_threshold);
                any_running_dirty |= running_dirty;
                clean
            })
            .collect();
        (clean, any_running_dirty, jobs.len() as u64)
    }

    /// Delta-driven classification: trust every stored job outside the
    /// delta, re-check fingerprints only for the delta's jobs and the
    /// frozen-bit suspects (stored *running* jobs, whose penalty gate can
    /// flip as runtime grows without any engine transition). Jobs with no
    /// stored fingerprint (new arrivals) default to dirty, exactly like
    /// the fallback.
    fn classify_delta(
        &self,
        jobs: &[JobSnapshot],
        index: &JobIndex,
        delta: &JobDelta,
        reconfig_threshold: f64,
    ) -> (Vec<bool>, bool, u64) {
        let mut clean = vec![false; jobs.len()];
        let mut any_running_dirty = false;
        let mut classified = 0u64;
        let mut changed = delta.changed.iter().copied().peekable();
        for &(id, ref fp) in &self.fingerprints {
            while changed.peek().is_some_and(|&c| c < id) {
                changed.next();
            }
            let in_delta = changed.peek() == Some(&id);
            let Some(pos) = index.get(id) else {
                // Vanished (finished or cancelled): handled by the
                // caller's vanished check; nothing to classify.
                continue;
            };
            let snap = &jobs[pos];
            clean[pos] = if in_delta {
                classified += 1;
                let (ok, running_dirty) = self.classify_one(snap, reconfig_threshold);
                any_running_dirty |= running_dirty;
                ok
            } else if fp.running {
                // Frozen-bit suspect: recompute only the gate.
                classified += 1;
                let frozen_now =
                    snap.status.is_running() && !snap.reconfig_allowed(reconfig_threshold);
                any_running_dirty |= frozen_now != fp.frozen;
                frozen_now == fp.frozen
            } else {
                // Queued, untouched by the engine: every fingerprint field
                // of a queued job only moves through marked transitions.
                true
            };
        }
        (clean, any_running_dirty, classified)
    }

    /// Whether the engine state reflects what we handed it: a running job
    /// must match its emitted `(allocation, plan)` verbatim, and a queued
    /// job must not have one (an emitted-but-still-queued job is a failed
    /// launch).
    fn emitted_consistent(&self, snap: &JobSnapshot) -> bool {
        match &snap.status {
            JobStatus::Running {
                allocation, plan, ..
            } => self
                .emitted_of(snap.id())
                .map(|(a, p)| a == allocation && p == plan)
                .unwrap_or(false),
            _ => self.emitted_of(snap.id()).is_none(),
        }
    }

    /// Re-emits the previous round's assignments without planning: every
    /// running job's `(allocation, plan)` verbatim, in id order — exactly
    /// what `emit` produces in a quiet round. Valid only when the caller
    /// verified fast-eligibility *and* that the ledger equals the
    /// projection.
    pub(crate) fn fast_path(&mut self, jobs: &[JobSnapshot], classified: u64) -> Vec<Assignment> {
        let mut ids: Vec<&JobSnapshot> = jobs.iter().collect();
        ids.sort_by_key(|s| s.id());
        let mut out = Vec::new();
        for snap in ids {
            if let JobStatus::Running {
                allocation, plan, ..
            } = &snap.status
            {
                if allocation.is_empty() {
                    continue;
                }
                out.push(Assignment {
                    job: snap.id(),
                    allocation: allocation.clone(),
                    plan: *plan,
                });
            }
        }
        self.stats = Some(RoundStats {
            dirty: 0,
            clean: jobs.len() as u64,
            reused: out.len() as u64,
            searched: 0,
            classified,
        });
        // History (fingerprints, projection, quietness) is untouched: the
        // round changed nothing, so it stays valid.
        out
    }

    /// Records the end-of-round memory: fingerprints of the snapshots the
    /// round planned over, the emitted assignments, and the ledger
    /// projection replaying the epoch's `node_caps` minus every emitted
    /// allocation in id order.
    pub(crate) fn record(
        &mut self,
        jobs: &[JobSnapshot],
        out: &[Assignment],
        epoch: Epoch,
        quiet: bool,
        reconfig_threshold: f64,
    ) {
        self.fingerprints.clear();
        self.fingerprints.extend(
            jobs.iter()
                .map(|s| (s.id(), Fingerprint::of(s, reconfig_threshold))),
        );
        // Engine snapshots arrive id-sorted, making this near-O(n); the
        // probes require sorted order regardless of the caller.
        self.fingerprints.sort_unstable_by_key(|&(id, _)| id);
        // Refilled in place: each kept entry's allocation buffer is reused.
        self.emitted.truncate(out.len());
        for (i, a) in out.iter().enumerate() {
            match self.emitted.get_mut(i) {
                Some((id, (alloc, plan))) => {
                    *id = a.job;
                    alloc.clone_from(&a.allocation);
                    *plan = a.plan;
                }
                None => self.emitted.push((a.job, (a.allocation.clone(), a.plan))),
            }
        }
        self.emitted.sort_unstable_by_key(|&(id, _)| id);
        self.projected_free.clone_from(&epoch.node_caps);
        for a in out {
            for (node, res) in &a.allocation.per_node {
                if let Some(slot) = self.projected_free.get_mut(*node) {
                    *slot -= *res;
                }
            }
        }
        self.prev_round_quiet = quiet;
        self.epoch = Some(epoch);
    }
}

/// Merges the sorted, deduped `src` ids into the sorted, deduped `dst`.
fn merge_sorted(dst: &mut Vec<JobId>, src: &[JobId]) {
    if src.is_empty() {
        return;
    }
    dst.extend_from_slice(src);
    dst.sort_unstable();
    dst.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testing::{job, snapshot};
    use rubick_model::{ExecutionPlan, ModelSpec, NodeShape};
    use rubick_sim::job::JobSpec;
    use std::sync::Arc;

    fn snap(id: JobId, status: JobStatus) -> JobSnapshot {
        let spec = JobSpec {
            requested: Resources::new(1, 12, 100.0),
            ..job(
                id,
                ModelSpec::roberta_large(),
                1,
                ExecutionPlan::dp(1),
                1000,
            )
        };
        JobSnapshot {
            runtime: 1_000.0,
            baseline_throughput: Some(1.0),
            ..snapshot(spec, status)
        }
    }

    fn running(id: JobId) -> JobSnapshot {
        snap(
            id,
            JobStatus::Running {
                allocation: Allocation::on_node(0, Resources::new(1, 12, 100.0)),
                plan: ExecutionPlan::dp(1),
                throughput: 1.0,
                resume_at: 0.0,
            },
        )
    }

    /// The one assignment that keeps job 1 as [`running`] holds it.
    fn job1_as_running() -> Vec<Assignment> {
        vec![Assignment {
            job: 1,
            allocation: Allocation::on_node(0, Resources::new(1, 12, 100.0)),
            plan: ExecutionPlan::dp(1),
        }]
    }

    fn epoch() -> Epoch {
        Epoch {
            registry_version: 0,
            node_caps: vec![NodeShape::a800().capacity()],
            tenants: Vec::new(),
        }
    }

    fn record_simple(t: &mut DirtyTracker, jobs: &[JobSnapshot], out: &[Assignment], quiet: bool) {
        t.record(jobs, out, epoch(), quiet, 0.97);
    }

    /// Classifies `jobs` against `epoch` and the ledger `free`, returning
    /// the classification and each job's effective verdict (clean or not)
    /// in slice order.
    fn classify_on(
        t: &mut DirtyTracker,
        jobs: &[JobSnapshot],
        epoch: &Epoch,
        free: &[Resources],
    ) -> (Classification, Vec<bool>) {
        let mut index = JobIndex::default();
        index.rebuild(jobs);
        let cls = t.classify(jobs, &index, epoch, free, 0.97);
        let clean = (0..jobs.len()).map(|pos| cls.clean(pos)).collect();
        (cls, clean)
    }

    /// [`classify_on`] with the standard epoch, against the ledger the
    /// tracker projected.
    fn classify(t: &mut DirtyTracker, jobs: &[JobSnapshot]) -> (Classification, Vec<bool>) {
        let free = t.projected_free.clone();
        classify_on(t, jobs, &epoch(), &free)
    }

    #[test]
    fn first_round_is_all_dirty_then_steady_state_is_clean() {
        let mut t = DirtyTracker::new();
        let jobs = vec![running(1), snap(2, JobStatus::Queued)];
        let (cls, _) = classify(&mut t, &jobs);
        assert_eq!(cls.dirty_len(), 2);
        assert!(!cls.fast_eligible());

        let out = job1_as_running();
        record_simple(&mut t, &jobs, &out, true);
        let (cls, clean) = classify(&mut t, &jobs);
        assert_eq!(cls.dirty_len(), 0);
        assert_eq!(clean, [true, true]);
        assert!(cls.fast_eligible());
        // The fallback pass fingerprinted every job.
        assert_eq!(cls.classified, 2);
    }

    #[test]
    fn dirty_running_job_demotes_every_clean_job() {
        let mut t = DirtyTracker::new();
        let jobs = vec![running(1), running(2), snap(3, JobStatus::Queued)];
        let out: Vec<Assignment> = jobs
            .iter()
            .filter_map(|s| {
                s.allocation().map(|a| Assignment {
                    job: s.id(),
                    allocation: a.clone(),
                    plan: *s.plan().unwrap(),
                })
            })
            .collect();
        record_simple(&mut t, &jobs, &out, true);

        // Job 1's throughput moved: it is dirty, and so are the running
        // job 2 and the queued job 3, whose fingerprints did not move.
        let mut jobs2 = jobs.clone();
        if let JobStatus::Running { throughput, .. } = &mut jobs2[0].status {
            *throughput = 2.0;
        }
        let (cls, clean) = classify(&mut t, &jobs2);
        assert_eq!(clean, [false, false, false]);
        assert_eq!(cls.dirty_len(), 3);
        assert_eq!(cls.clean_len(), 0);
        assert!(!cls.fast_eligible());
    }

    #[test]
    fn epoch_mismatch_dirties_everything() {
        let mut t = DirtyTracker::new();
        let jobs = vec![running(1)];
        let out = job1_as_running();
        record_simple(&mut t, &jobs, &out, true);
        let free = t.projected_free.clone();

        let mut refit = epoch();
        refit.registry_version = 7;
        // A node going down zeroes its schedulable capacity.
        let mut node_down = epoch();
        node_down.node_caps[0] = Resources::zero();
        for other in [refit, node_down] {
            let (cls, clean) = classify_on(&mut t, &jobs, &other, &free);
            assert!(!cls.epoch_matched);
            assert_eq!(clean, [false]);
        }
        let (cls, clean) = classify(&mut t, &jobs);
        assert!(cls.epoch_matched);
        assert_eq!(clean, [true]);
    }

    #[test]
    fn ledger_off_projection_demotes_every_clean_job() {
        let mut t = DirtyTracker::new();
        let jobs = vec![running(1), snap(2, JobStatus::Queued)];
        let out = job1_as_running();
        record_simple(&mut t, &jobs, &out, true);
        let projected = t.projected_free.clone();

        // One ULP more memory on the one node, which is growth; one ULP
        // less, which is a shrink; and a second node.
        let mut grown = projected.clone();
        grown[0].mem_gb = f64::from_bits(grown[0].mem_gb.to_bits() + 1);
        let mut shrunk = projected.clone();
        shrunk[0].mem_gb = f64::from_bits(shrunk[0].mem_gb.to_bits() - 1);
        let mut wider = projected.clone();
        wider.push(NodeShape::a800().capacity());
        for free in [grown, shrunk, wider] {
            let (cls, clean) = classify_on(&mut t, &jobs, &epoch(), &free);
            assert_eq!(clean, [false, false], "{free:?}");
            assert_eq!(cls.dirty_len(), 2);
            assert!(!cls.fast_eligible());
        }
        let (cls, clean) = classify_on(&mut t, &jobs, &epoch(), &projected);
        assert_eq!(clean, [true, true]);
        assert!(cls.fast_eligible());
    }

    #[test]
    fn failed_launch_is_caught_by_emitted_consistency() {
        let mut t = DirtyTracker::new();
        let queued = vec![snap(1, JobStatus::Queued)];
        let out = job1_as_running();
        // We emitted a launch for job 1 and the previous round was *not*
        // quiet (it admitted a job)…
        record_simple(&mut t, &queued, &out, false);
        // …but the job is still queued: the launch failed, so it is dirty
        // even though its snapshot fingerprint is unchanged.
        let (cls, clean) = classify(&mut t, &queued);
        assert_eq!(clean, [false]);
        assert_eq!(cls.clean, [false]);
    }

    #[test]
    fn projection_matches_caps_minus_emitted() {
        let mut t = DirtyTracker::new();
        let jobs = vec![running(1)];
        let out = job1_as_running();
        record_simple(&mut t, &jobs, &out, true);
        let cap = NodeShape::a800().capacity();
        assert_eq!(t.projected_free, [cap - Resources::new(1, 12, 100.0)]);
    }

    #[test]
    fn empty_delta_classifies_only_running_suspects() {
        let mut t = DirtyTracker::new();
        let mut jobs = vec![running(1)];
        for id in 2..6 {
            jobs.push(snap(id, JobStatus::Queued));
        }
        let out = job1_as_running();
        record_simple(&mut t, &jobs, &out, true);

        t.push_delta(&JobDelta::default());
        let (cls, _) = classify(&mut t, &jobs);
        // One frozen-bit recheck for the running job; the four queued jobs
        // are trusted clean without touching their fingerprints.
        assert_eq!(cls.classified, 1);
        assert_eq!(cls.dirty_len(), 0);
        assert_eq!(cls.clean_len(), 5);
        assert!(cls.fast_eligible());
        // The delta is one-shot: the next round falls back to the full
        // pass and fingerprints everything.
        let (cls, _) = classify(&mut t, &jobs);
        assert_eq!(cls.classified, 5);
    }

    #[test]
    fn delta_rechecks_exactly_the_named_jobs() {
        let mut t = DirtyTracker::new();
        let jobs = vec![
            running(1),
            snap(2, JobStatus::Queued),
            snap(3, JobStatus::Queued),
        ];
        let out = job1_as_running();
        record_simple(&mut t, &jobs, &out, true);

        // Job 2 re-queued at a later time; the engine marks it.
        let mut jobs2 = jobs.clone();
        jobs2[1].queued_since = 50.0;
        t.push_delta(&JobDelta { changed: vec![2] });
        let (cls, clean) = classify(&mut t, &jobs2);
        assert_eq!(clean, [true, false, true]);
        // Job 2's fingerprint compare + job 1's frozen recheck.
        assert_eq!(cls.classified, 2);
        assert!(!cls.fast_eligible());
    }

    #[test]
    fn departed_job_blocks_the_fast_path() {
        let mut t = DirtyTracker::new();
        let jobs = vec![running(1), snap(2, JobStatus::Queued)];
        let out = job1_as_running();
        record_simple(&mut t, &jobs, &out, true);

        // Job 2 finished and left the snapshot set; the engine names no
        // job for a departure.
        let jobs2 = vec![jobs[0].clone()];
        t.push_delta(&JobDelta::default());
        let (cls, clean) = classify(&mut t, &jobs2);
        // The survivor stays clean, but a vanished job frees capacity the
        // clean certificates never saw: no fast path.
        assert_eq!(clean, [true]);
        assert_eq!(cls.dirty_len(), 0);
        assert_eq!(cls.classified, 1);
        assert!(!cls.fast_eligible());
    }

    #[test]
    fn delta_naming_an_absent_job_classifies_as_without_it() {
        let mut t = DirtyTracker::new();
        let jobs = vec![
            running(1),
            snap(2, JobStatus::Queued),
            snap(3, JobStatus::Queued),
        ];
        let out = job1_as_running();
        record_simple(&mut t, &jobs, &out, true);

        // Job 2 changed, then finished before the round, so the delta
        // still names it; id 9 never existed. Job 3 stays put or re-queues
        // later.
        let stayed = vec![jobs[0].clone(), jobs[2].clone()];
        let mut requeued = stayed.clone();
        requeued[1].queued_since = 50.0;
        for (slice, named, present, verdicts) in [
            (&stayed, vec![2], vec![], [true, true]),
            (&stayed, vec![2, 9], vec![], [true, true]),
            (&requeued, vec![2, 3], vec![3], [true, false]),
            (&requeued, vec![2, 3, 9], vec![3], [true, false]),
        ] {
            t.push_delta(&JobDelta { changed: present });
            let (want, want_clean) = classify(&mut t, slice);
            t.push_delta(&JobDelta { changed: named });
            let (got, got_clean) = classify(&mut t, slice);
            assert_eq!(want_clean, verdicts);
            assert_eq!(got_clean, want_clean);
            assert_eq!(got.classified, want.classified);
            assert!(!got.fast_eligible());
        }
    }

    #[test]
    fn frozen_bit_flip_is_caught_without_a_delta_entry() {
        // gpt2-xl's checkpoint is heavy enough that the §5.2 gate blocks a
        // 2-minute-old job but allows a long-running one (see the gate's
        // own unit tests in rubick-sim).
        let frozen_snap = |runtime: f64| {
            let mut s = running(1);
            let mut spec = (*s.spec).clone();
            spec.model = ModelSpec::gpt2_xl();
            s.spec = Arc::new(spec);
            s.runtime = runtime;
            s
        };
        let young = vec![frozen_snap(120.0)];
        assert!(!young[0].reconfig_allowed(0.97), "gate must start closed");
        let old = vec![frozen_snap(100_000.0)];
        assert!(old[0].reconfig_allowed(0.97), "gate must open with age");

        let mut t = DirtyTracker::new();
        let out = job1_as_running();
        record_simple(&mut t, &young, &out, true);

        // Runtime grew past the gate with no engine transition: the empty
        // delta must still catch the flip via the running-suspect recheck.
        t.push_delta(&JobDelta::default());
        let (cls, clean) = classify(&mut t, &old);
        assert_eq!(clean, [false]);
        assert_eq!(cls.classified, 1);
    }

    #[test]
    fn push_delta_merges_sorted_unions() {
        let mut t = DirtyTracker::new();
        t.push_delta(&JobDelta {
            changed: vec![1, 5],
        });
        t.push_delta(&JobDelta {
            changed: vec![3, 5],
        });
        let d = t.pending_delta.as_ref().unwrap();
        assert_eq!(d.changed, vec![1, 3, 5]);
    }
}
