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
//! * **satiated-clean** — the job already holds its useful resource cap
//!   and nothing about *it* changed: its `ScheduleJob` visit provably
//!   breaks out of `grow_job`'s per-node loop before reading the ledger or
//!   any victim, and the accept/rollback tail is deterministic in
//!   epoch-stable inputs — the visit is a no-op and is skipped
//!   unconditionally;
//! * **quiet-clean** — the job is unchanged but not satiated; its
//!   previous visit was a no-op only in the context of the previous
//!   round's state, so the skip is valid only while this round's state is
//!   still bit-identical to that one: the previous round must have been
//!   *quiet* (no lasting mutation), the ledger projection must match
//!   exactly, no running job may be dirty, and nothing may have mutated
//!   the state yet this round (`state.changed` still empty).
//!
//! When every job is clean, the previous round was quiet and the ledger
//! matches, the round takes a **fast path**: no per-job context is built,
//! no passes run, and the previous round's (verbatim) assignments are
//! re-emitted. The invariant that makes all of this sound is spelled out
//! in `DESIGN.md` §11.
//!
//! **Delta-driven classification** (DESIGN.md §13): the engine tracks
//! which job snapshots mutated between rounds and hands the set over via
//! [`Scheduler::notify_jobs`](rubick_sim::Scheduler::notify_jobs). When a
//! delta is pending, classification compares fingerprints only for the
//! delta's jobs plus the *frozen-bit suspects* — stored running jobs whose
//! reconfiguration-penalty gate may have flipped as their runtime grew,
//! the single fingerprint field that evolves without an engine-side state
//! transition. Every other stored job is trusted clean, so a quiet round
//! classifies O(changed + running) jobs instead of O(jobs). The full
//! fingerprint pass is retained as the fallback for callers that supply no
//! delta (hand-wired tests, lazy-profiling rounds that filter the job
//! slice) and as a `debug_assert` cross-check of every delta-driven
//! verdict.
//!
//! Classification state is flat: verdicts live in a `Vec` parallel to the
//! jobs slice, history in sorted vecs probed by binary search, and job →
//! position lookups go through a generation-stamped dense [`JobIndex`], so
//! the per-job probes stay cache-friendly at 100k jobs.
//!
//! Fingerprints deliberately *exclude* monotone-decreasing inputs
//! (`remaining_batches`, and through it a victim's remaining seconds, and
//! the amortization guard's `samples_left`): a search that rolled back
//! last round can only roll back harder as those shrink, and a victim
//! that was not stolen from cannot become *more* attractive by
//! approaching completion (the about-to-finish filter only removes the
//! cheapest victim, leaving strictly costlier ones).

use crate::common::PlanSearch;
use rubick_model::{ExecutionPlan, Resources, SensitivityCurve, ThroughputModel};
use rubick_sim::cluster::Allocation;
use rubick_sim::job::{JobId, JobStatus};
use rubick_sim::scheduler::{Assignment, JobDelta, JobSnapshot, RoundStats};
use rubick_sim::tenant::Tenant;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything the plan search reads that is *not* per-job: the fitted
/// model registry (tracked by its monotone version counter), the cluster
/// geometry and the tenant quotas. An epoch mismatch invalidates every
/// certificate at once; whether it also invalidates the cached per-job
/// context parts depends on *which* component moved — see
/// [`Epoch::parts_compatible`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Epoch {
    /// [`ModelRegistry::version`](crate::ModelRegistry::version) at the
    /// start of the round, after lazy profiling — any refit or model
    /// insertion bumps it.
    pub(crate) registry_version: u64,
    /// Total schedulable GPUs (norms, `g_star` and curves depend on it).
    pub(crate) total_gpus: u32,
    /// Per-node schedulable capacity (zero for down nodes).
    pub(crate) node_caps: Vec<Resources>,
    /// Tenant quotas, compared structurally.
    pub(crate) tenants: Vec<Tenant>,
}

impl Epoch {
    /// Whether cached [`CachedParts`] computed under `self` are still
    /// valid under `now`. `build_job_parts` is pure in (policy config, job
    /// spec, registry version, total GPUs, node *shape*): quota edits and
    /// per-node capacity changes (a node going down) invalidate plan
    /// certificates but not curves, baselines or minimum demands, as long
    /// as the registry and the total GPU count are unchanged.
    pub(crate) fn parts_compatible(&self, now: &Epoch) -> bool {
        self.registry_version == now.registry_version && self.total_gpus == now.total_gpus
    }
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

/// The cached, epoch-stable slice of a job's round context: fitted model,
/// plan-search mode, sensitivity curve, SLA baseline and minimum demand.
/// The penalty gate (`frozen`) is *not* cached — it depends on the job's
/// runtime and is recomputed every round.
#[derive(Clone)]
pub(crate) struct CachedParts {
    /// The job's fitted model, resolved from the registry once; valid for
    /// as long as the registry version is (see [`Epoch::parts_compatible`]).
    pub(crate) model: Option<Arc<ThroughputModel>>,
    /// Plan-reconfiguration freedom (a function of the policy config and
    /// the job's immutable initial plan).
    pub(crate) search: PlanSearch,
    /// GPU sensitivity curve under `search`, if the model is known.
    pub(crate) curve: Option<Arc<SensitivityCurve>>,
    /// SLA baseline throughput, if derivable.
    pub(crate) baseline: Option<f64>,
    /// Minimum resource demand (`MinRes` of Algorithm 1).
    pub(crate) minimum: Resources,
}

/// Generation-stamped dense map from [`JobId`] to a job's position in the
/// current round's jobs slice. Rebuilding bumps the generation instead of
/// clearing the slot table, so steady-state rebuilds are O(jobs) scatter
/// stores with no zeroing pass; a sorted-vec fallback handles id spaces
/// too sparse for the dense table.
#[derive(Debug, Default)]
pub(crate) struct JobIndex {
    /// `slots[id] = (generation, position)`; valid iff the stamp matches.
    slots: Vec<(u32, u32)>,
    gen: u32,
    /// Sorted `(id, position)` fallback when ids are too sparse.
    sparse: Vec<(JobId, u32)>,
    dense: bool,
}

impl JobIndex {
    /// Re-points the index at `jobs` (by slice position).
    pub(crate) fn rebuild(&mut self, jobs: &[JobSnapshot]) {
        let max_id = jobs.iter().map(|s| s.id()).max().unwrap_or(0);
        self.dense = (max_id as usize) < 8 * jobs.len() + 1024;
        if self.dense {
            if self.slots.len() <= max_id as usize {
                self.slots.resize(max_id as usize + 1, (0, 0));
            }
            self.gen = self.gen.wrapping_add(1);
            if self.gen == 0 {
                // Generation wrapped: stale stamps could collide, so pay
                // one full clear every 2^32 rebuilds.
                self.slots.fill((0, 0));
                self.gen = 1;
            }
            let gen = self.gen;
            for (pos, snap) in jobs.iter().enumerate() {
                self.slots[snap.id() as usize] = (gen, pos as u32);
            }
            self.sparse.clear();
        } else {
            self.sparse.clear();
            self.sparse
                .extend(jobs.iter().enumerate().map(|(pos, s)| (s.id(), pos as u32)));
            self.sparse.sort_unstable_by_key(|&(id, _)| id);
        }
    }

    /// The slice position of `id`, if it is in the current round.
    pub(crate) fn get(&self, id: JobId) -> Option<usize> {
        if self.dense {
            let slot = self.slots.get(id as usize)?;
            (slot.0 == self.gen).then_some(slot.1 as usize)
        } else {
            self.sparse
                .binary_search_by_key(&id, |&(id, _)| id)
                .ok()
                .map(|i| self.sparse[i].1 as usize)
        }
    }
}

/// A job's classification for this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Planning inputs changed; re-run the plan search.
    Dirty,
    /// Satiated clean: skipped unconditionally.
    SkipAlways,
    /// Non-satiated clean: skipped only while the round state is still
    /// untouched (`state.changed` empty).
    QuietSkip,
}

/// How this round's jobs partition, as decided by
/// [`DirtyTracker::classify`] (fingerprints + epoch) and then tightened by
/// the caller (ledger check, which may demote the quiet-clean set or
/// everything). Verdicts are stored positionally, parallel to the jobs
/// slice; demotions are flags folded in by [`Classification::verdict`]
/// instead of set moves.
#[derive(Debug, Default)]
pub(crate) struct Classification {
    verdicts: Vec<Verdict>,
    dirty_count: u64,
    skip_always_count: u64,
    quiet_skip_count: u64,
    quiet_demoted: bool,
    all_demoted: bool,
    /// Whether the stored epoch matched (skip certificates are usable).
    /// The policy consumes this indirectly through the verdicts (a
    /// mismatch marks everything dirty); tests pin it directly.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) epoch_matched: bool,
    /// Whether the cached per-job parts survive this round (the epoch
    /// components they depend on are unchanged, even if quotas or node
    /// capacities moved — see [`Epoch::parts_compatible`]).
    pub(crate) parts_reusable: bool,
    /// Fingerprint comparisons performed: O(changed + running) on the
    /// delta path, O(jobs) on the fallback, 0 on an epoch mismatch.
    pub(crate) classified: u64,
    /// All clean + previous round quiet + no vanished jobs (before
    /// demotions): with an unchanged ledger the round may fast-path.
    fast_base: bool,
    /// The job → position index built for this round; the policy takes it
    /// for its own dense context maps and returns it to the tracker.
    index: JobIndex,
}

impl Classification {
    /// The effective verdict of the job at slice position `pos`, with
    /// demotions applied.
    pub(crate) fn verdict(&self, pos: usize) -> Verdict {
        let v = self.verdicts[pos];
        if self.all_demoted {
            return Verdict::Dirty;
        }
        if self.quiet_demoted && v == Verdict::QuietSkip {
            return Verdict::Dirty;
        }
        v
    }

    /// The effective verdict of job `id`, if it is in this round. Only
    /// valid before [`Classification::take_index`].
    #[cfg(test)]
    pub(crate) fn verdict_of(&self, id: JobId) -> Option<Verdict> {
        self.index.get(id).map(|pos| self.verdict(pos))
    }

    /// Demotes every quiet-clean job to dirty (ledger grew, a running job
    /// changed, or the previous round was not quiet).
    pub(crate) fn demote_quiet(&mut self) {
        self.quiet_demoted = true;
    }

    /// Demotes *everything* to dirty (ledger shrink).
    pub(crate) fn demote_all(&mut self) {
        self.all_demoted = true;
    }

    /// Whether the round may take the verbatim re-emit fast path (the
    /// caller must additionally verify `LedgerDelta::Unchanged`).
    pub(crate) fn fast_eligible(&self) -> bool {
        self.fast_base && !self.quiet_demoted && !self.all_demoted
    }

    /// Effective dirty-job count, demotions included.
    pub(crate) fn dirty_len(&self) -> u64 {
        if self.all_demoted {
            self.dirty_count + self.skip_always_count + self.quiet_skip_count
        } else if self.quiet_demoted {
            self.dirty_count + self.quiet_skip_count
        } else {
            self.dirty_count
        }
    }

    /// Effective clean-job count, demotions included.
    pub(crate) fn clean_len(&self) -> u64 {
        (self.verdicts.len() as u64).saturating_sub(self.dirty_len())
    }

    /// Moves the round's [`JobIndex`] out (the policy keys its dense
    /// context vectors by it); hand it back to the tracker via
    /// [`DirtyTracker::restore_index`] so the allocation is reused.
    pub(crate) fn take_index(&mut self) -> JobIndex {
        std::mem::take(&mut self.index)
    }
}

/// End-of-round memory of the incremental planner: fingerprints, the
/// emitted assignments, the satiated set, a bit-exact projection of the
/// next round's post-`charge_running` free ledger, and the epoch they
/// were all recorded under. History lives in `JobId`-sorted flat vecs —
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
    /// Jobs whose emitted allocation already met their useful cap, sorted.
    satiated: Vec<JobId>,
    /// Projected per-node free ledger for the next round, computed with
    /// the same `free[n] -= r` op sequence as `RoundContext::new` +
    /// `charge_running` so equality is bit-exact.
    projected_free: Vec<Resources>,
    /// Whether the last round ended with `state.changed` empty.
    prev_round_quiet: bool,
    epoch: Option<Epoch>,
    /// Per-job context parts cache, valid while the epoch's
    /// parts-relevant components are unchanged.
    pub(crate) parts: BTreeMap<JobId, CachedParts>,
    /// Set by [`Scheduler::notify`](rubick_sim::Scheduler::notify) on a
    /// cluster delta; forces a full re-plan on the next round.
    force_dirty: bool,
    /// Accumulated [`JobDelta`] from
    /// [`Scheduler::notify_jobs`](rubick_sim::Scheduler::notify_jobs);
    /// consumed by the next classify. `None` means no delta was supplied
    /// and classification falls back to the full fingerprint pass.
    pending_delta: Option<JobDelta>,
    /// Index allocation reused across rounds (see
    /// [`DirtyTracker::restore_index`]).
    scratch_index: JobIndex,
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

    /// Marks the next round as force-dirty (cluster topology changed).
    pub(crate) fn force_dirty(&mut self) {
        self.force_dirty = true;
    }

    /// Accumulates an engine-supplied job delta for the next classify.
    /// Multiple notifications between rounds merge (sorted union).
    pub(crate) fn push_delta(&mut self, delta: &JobDelta) {
        match &mut self.pending_delta {
            None => self.pending_delta = Some(delta.clone()),
            Some(d) => {
                merge_sorted(&mut d.changed, &delta.changed);
                merge_sorted(&mut d.removed, &delta.removed);
            }
        }
    }

    /// Drops any pending delta: the next classify falls back to the full
    /// fingerprint pass. Used when the caller filtered the jobs slice
    /// (lazy profiling), so the engine's delta no longer describes it.
    pub(crate) fn clear_delta(&mut self) {
        self.pending_delta = None;
    }

    /// Returns the round index allocation for reuse by the next round.
    pub(crate) fn restore_index(&mut self, index: JobIndex) {
        self.scratch_index = index;
    }

    /// Statistics of the most recent round, if one ran incrementally.
    pub(crate) fn stats(&self) -> Option<RoundStats> {
        self.stats
    }

    /// Stores this round's statistics.
    pub(crate) fn set_stats(&mut self, stats: RoundStats) {
        self.stats = Some(stats);
    }

    /// The recorded ledger projection (empty before the first round).
    pub(crate) fn projected_free(&self) -> &[Resources] {
        &self.projected_free
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

    fn satiated_contains(&self, id: JobId) -> bool {
        self.satiated.binary_search(&id).is_ok()
    }

    /// Partitions `jobs` by comparing fingerprints and the epoch, using a
    /// pending engine delta when one was supplied and the full
    /// fingerprint pass otherwise. The caller must still
    /// apply the ledger check (demoting the quiet set on growth,
    /// everything on shrink) before trusting the skip sets.
    ///
    /// Consumes the force-dirty flag and the pending delta: a notified
    /// cluster delta dirties exactly one round, and a job delta describes
    /// exactly one inter-round window.
    pub(crate) fn classify(
        &mut self,
        jobs: &[JobSnapshot],
        epoch_now: &Epoch,
        reconfig_threshold: f64,
    ) -> Classification {
        let force = std::mem::take(&mut self.force_dirty);
        let delta = self.pending_delta.take();
        let mut index = std::mem::take(&mut self.scratch_index);
        index.rebuild(jobs);
        let epoch_matched = !force && self.epoch.as_ref() == Some(epoch_now);
        let parts_reusable = self
            .epoch
            .as_ref()
            .is_some_and(|e| e.parts_compatible(epoch_now));
        if !parts_reusable {
            self.parts.clear();
        }
        if !epoch_matched {
            // No certificate survives; re-plan everything from scratch.
            return Classification {
                verdicts: vec![Verdict::Dirty; jobs.len()],
                dirty_count: jobs.len() as u64,
                parts_reusable,
                index,
                ..Classification::default()
            };
        }

        let vanished = self
            .fingerprints
            .iter()
            .any(|&(id, _)| index.get(id).is_none());
        let (verdicts, any_running_dirty, classified) = match &delta {
            Some(d) => {
                let out = self.classify_delta(jobs, &index, d, reconfig_threshold);
                #[cfg(debug_assertions)]
                {
                    let (ref_verdicts, ref_ard, _) =
                        self.classify_fallback(jobs, reconfig_threshold);
                    debug_assert_eq!(
                        out.0, ref_verdicts,
                        "delta-driven verdicts diverge from the fingerprint pass \
                         (the engine under-reported a change)"
                    );
                    debug_assert_eq!(out.1, ref_ard, "delta path missed a dirty running job");
                }
                out
            }
            None => self.classify_fallback(jobs, reconfig_threshold),
        };

        let mut counts = [0u64; 3];
        for v in &verdicts {
            counts[*v as usize] += 1;
        }
        let mut cls = Classification {
            dirty_count: counts[Verdict::Dirty as usize],
            skip_always_count: counts[Verdict::SkipAlways as usize],
            quiet_skip_count: counts[Verdict::QuietSkip as usize],
            verdicts,
            epoch_matched: true,
            parts_reusable,
            classified,
            fast_base: false,
            index,
            ..Classification::default()
        };
        cls.fast_base = cls.dirty_count == 0 && !vanished && self.prev_round_quiet;
        // A dirty *running* job shifts victim economics (and possibly
        // quota accounting) for every other search; only satiated jobs —
        // which provably read neither — keep their skip. Ditto when the
        // previous round mutated state mid-pass: the quiet certificates
        // were taken against a state this round does not reproduce.
        if any_running_dirty || !self.prev_round_quiet {
            cls.demote_quiet();
        }
        cls
    }

    /// One job's verdict under the full fingerprint + emitted-consistency
    /// check. Pure in (`self`, snapshot).
    fn classify_one(&self, snap: &JobSnapshot, reconfig_threshold: f64) -> (Verdict, bool) {
        let id = snap.id();
        let fp = Fingerprint::of(snap, reconfig_threshold);
        let clean = self.fingerprint_of(id) == Some(&fp) && self.emitted_consistent(snap);
        if clean {
            (self.clean_verdict(id), false)
        } else {
            (Verdict::Dirty, snap.status.is_running())
        }
    }

    fn clean_verdict(&self, id: JobId) -> Verdict {
        if self.satiated_contains(id) {
            Verdict::SkipAlways
        } else {
            Verdict::QuietSkip
        }
    }

    /// The full fingerprint pass over every job.
    fn classify_fallback(
        &self,
        jobs: &[JobSnapshot],
        reconfig_threshold: f64,
    ) -> (Vec<Verdict>, bool, u64) {
        let mut any_running_dirty = false;
        let verdicts = jobs
            .iter()
            .map(|snap| {
                let (verdict, running_dirty) = self.classify_one(snap, reconfig_threshold);
                any_running_dirty |= running_dirty;
                verdict
            })
            .collect();
        (verdicts, any_running_dirty, jobs.len() as u64)
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
    ) -> (Vec<Verdict>, bool, u64) {
        let mut verdicts = vec![Verdict::Dirty; jobs.len()];
        let mut any_running_dirty = false;
        let mut classified = 0u64;
        let mut changed = delta.changed.iter().copied().peekable();
        for &(id, ref fp) in &self.fingerprints {
            while changed.peek().is_some_and(|&c| c < id) {
                changed.next();
            }
            let in_delta = changed.peek() == Some(&id);
            let Some(pos) = index.get(id) else {
                // Vanished (finished/removed): handled by the caller's
                // vanished check; nothing to classify.
                continue;
            };
            let snap = &jobs[pos];
            verdicts[pos] = if in_delta {
                classified += 1;
                let (verdict, running_dirty) = self.classify_one(snap, reconfig_threshold);
                any_running_dirty |= running_dirty;
                verdict
            } else if fp.running {
                // Frozen-bit suspect: recompute only the gate.
                classified += 1;
                let frozen_now =
                    snap.status.is_running() && !snap.reconfig_allowed(reconfig_threshold);
                if frozen_now != fp.frozen {
                    any_running_dirty = true;
                    Verdict::Dirty
                } else {
                    self.clean_verdict(id)
                }
            } else {
                // Queued, untouched by the engine: every fingerprint field
                // of a queued job only moves through marked transitions.
                self.clean_verdict(id)
            };
        }
        (verdicts, any_running_dirty, classified)
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
    /// verified fast-eligibility *and* `LedgerDelta::Unchanged`.
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
        // History (fingerprints, projection, satiated set, quietness) is
        // untouched: the round changed nothing, so it stays valid.
        out
    }

    /// Records the end-of-round memory: fingerprints of the snapshots the
    /// round planned over, the emitted assignments, which of them are
    /// satiated (per `satiated`, evaluated against epoch-stable context),
    /// and the ledger projection replaying `node_caps` minus every
    /// emitted allocation in id order. `index` (when the caller still has
    /// this round's [`JobIndex`]) makes the parts-cache liveness pruning
    /// O(1) per entry.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record(
        &mut self,
        jobs: &[JobSnapshot],
        out: &[Assignment],
        node_caps: Vec<Resources>,
        epoch: Epoch,
        quiet: bool,
        reconfig_threshold: f64,
        satiated: impl Fn(JobId, &Allocation) -> bool,
        index: Option<&JobIndex>,
    ) {
        self.fingerprints.clear();
        self.fingerprints.extend(
            jobs.iter()
                .map(|s| (s.id(), Fingerprint::of(s, reconfig_threshold))),
        );
        // Engine snapshots arrive id-sorted, making this near-O(n); the
        // probes require sorted order regardless of the caller.
        self.fingerprints.sort_unstable_by_key(|&(id, _)| id);
        self.emitted.clear();
        self.emitted
            .extend(out.iter().map(|a| (a.job, (a.allocation.clone(), a.plan))));
        self.emitted.sort_unstable_by_key(|&(id, _)| id);
        self.satiated.clear();
        self.satiated.extend(
            out.iter()
                .filter(|a| satiated(a.job, &a.allocation))
                .map(|a| a.job),
        );
        self.satiated.sort_unstable();
        let mut free = node_caps;
        for a in out {
            for (node, res) in &a.allocation.per_node {
                if let Some(slot) = free.get_mut(*node) {
                    *slot -= *res;
                }
            }
        }
        self.projected_free = free;
        self.prev_round_quiet = quiet;
        // Cached parts for jobs that left the system are dead weight.
        match index {
            Some(ix) => self.parts.retain(|id, _| ix.get(*id).is_some()),
            None => {
                let live: std::collections::BTreeSet<JobId> = jobs.iter().map(|s| s.id()).collect();
                self.parts.retain(|id, _| live.contains(id));
            }
        }
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
    use rubick_model::{ExecutionPlan, ModelSpec, NodeShape};
    use rubick_sim::job::{JobClass, JobSpec};
    use rubick_sim::tenant::TenantId;

    fn snap(id: JobId, status: JobStatus) -> JobSnapshot {
        JobSnapshot {
            spec: Arc::new(JobSpec {
                id,
                model: ModelSpec::roberta_large(),
                global_batch: 64,
                submit_time: 0.0,
                target_batches: 1000,
                requested: Resources::new(1, 12, 100.0),
                initial_plan: ExecutionPlan::dp(1),
                class: JobClass::Guaranteed,
                tenant: TenantId::default(),
            }),
            status,
            remaining_batches: 1000.0,
            queued_since: 0.0,
            runtime: 1_000.0,
            reconfig_count: 0,
            baseline_throughput: Some(1.0),
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

    fn epoch() -> Epoch {
        Epoch {
            registry_version: 0,
            total_gpus: 8,
            node_caps: vec![NodeShape::a800().capacity()],
            tenants: Vec::new(),
        }
    }

    fn record_simple(t: &mut DirtyTracker, jobs: &[JobSnapshot], out: &[Assignment], quiet: bool) {
        t.record(
            jobs,
            out,
            epoch().node_caps,
            epoch(),
            quiet,
            0.97,
            |_, _| false,
            None,
        );
    }

    #[test]
    fn first_round_is_all_dirty_then_steady_state_is_clean() {
        let mut t = DirtyTracker::new();
        let jobs = vec![running(1), snap(2, JobStatus::Queued)];
        let cls = t.classify(&jobs, &epoch(), 0.97);
        assert_eq!(cls.dirty_len(), 2);
        assert!(!cls.fast_eligible());

        let out = vec![Assignment {
            job: 1,
            allocation: Allocation::on_node(0, Resources::new(1, 12, 100.0)),
            plan: ExecutionPlan::dp(1),
        }];
        record_simple(&mut t, &jobs, &out, true);
        let cls = t.classify(&jobs, &epoch(), 0.97);
        assert_eq!(cls.dirty_len(), 0);
        assert_eq!(cls.verdict_of(1), Some(Verdict::QuietSkip));
        assert_eq!(cls.verdict_of(2), Some(Verdict::QuietSkip));
        assert!(cls.fast_eligible());
        // The fallback pass fingerprinted every job.
        assert_eq!(cls.classified, 2);
    }

    #[test]
    fn dirty_running_job_demotes_quiet_set_but_not_satiated() {
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
        t.classify(&jobs, &epoch(), 0.97);
        t.record(
            &jobs,
            &out,
            epoch().node_caps,
            epoch(),
            true,
            0.97,
            |id, _| id == 2,
            None,
        );

        // Job 1's throughput moved: it and the queued job are dirty, the
        // satiated job 2 keeps its unconditional skip.
        let mut jobs2 = jobs.clone();
        if let JobStatus::Running { throughput, .. } = &mut jobs2[0].status {
            *throughput = 2.0;
        }
        let cls = t.classify(&jobs2, &epoch(), 0.97);
        assert_eq!(cls.verdict_of(1), Some(Verdict::Dirty));
        assert_eq!(cls.verdict_of(3), Some(Verdict::Dirty));
        assert_eq!(cls.verdict_of(2), Some(Verdict::SkipAlways));
        assert_eq!(cls.dirty_len(), 2);
        assert_eq!(cls.clean_len(), 1);
        assert!(!cls.fast_eligible());
    }

    #[test]
    fn epoch_mismatch_and_notify_dirty_everything() {
        let mut t = DirtyTracker::new();
        let jobs = vec![running(1)];
        let out = vec![Assignment {
            job: 1,
            allocation: Allocation::on_node(0, Resources::new(1, 12, 100.0)),
            plan: ExecutionPlan::dp(1),
        }];
        t.classify(&jobs, &epoch(), 0.97);
        t.record(
            &jobs,
            &out,
            epoch().node_caps,
            epoch(),
            true,
            0.97,
            |_, _| true,
            None,
        );

        let mut other = epoch();
        other.registry_version = 7;
        let cls = t.classify(&jobs, &other, 0.97);
        assert!(!cls.epoch_matched);
        assert_eq!(cls.verdict_of(1), Some(Verdict::Dirty));
        // A registry bump invalidates the cached parts too.
        assert!(!cls.parts_reusable);

        // Re-record, then a notified cluster delta forces one dirty round.
        t.record(
            &jobs,
            &out,
            epoch().node_caps,
            epoch(),
            true,
            0.97,
            |_, _| true,
            None,
        );
        t.force_dirty();
        let cls = t.classify(&jobs, &epoch(), 0.97);
        assert!(!cls.epoch_matched);
        assert_eq!(cls.verdict_of(1), Some(Verdict::Dirty));
        // The epoch itself is unchanged, so the parts cache survives the
        // forced re-plan.
        assert!(cls.parts_reusable);
        // The flag is one-shot.
        let cls = t.classify(&jobs, &epoch(), 0.97);
        assert!(cls.epoch_matched);
        assert_eq!(cls.verdict_of(1), Some(Verdict::SkipAlways));
    }

    #[test]
    fn failed_launch_is_caught_by_emitted_consistency() {
        let mut t = DirtyTracker::new();
        let queued = vec![snap(1, JobStatus::Queued)];
        let out = vec![Assignment {
            job: 1,
            allocation: Allocation::on_node(0, Resources::new(1, 12, 100.0)),
            plan: ExecutionPlan::dp(1),
        }];
        t.classify(&queued, &epoch(), 0.97);
        // We emitted a launch for job 1 and the previous round was *not*
        // quiet (it admitted a job)…
        record_simple(&mut t, &queued, &out, false);
        // …but the job is still queued: the launch failed, so it is dirty
        // even though its snapshot fingerprint is unchanged.
        let cls = t.classify(&queued, &epoch(), 0.97);
        assert_eq!(cls.verdict_of(1), Some(Verdict::Dirty));
    }

    #[test]
    fn projection_matches_caps_minus_emitted() {
        let mut t = DirtyTracker::new();
        let jobs = vec![running(1)];
        let out = vec![Assignment {
            job: 1,
            allocation: Allocation::on_node(0, Resources::new(1, 12, 100.0)),
            plan: ExecutionPlan::dp(1),
        }];
        record_simple(&mut t, &jobs, &out, true);
        let cap = NodeShape::a800().capacity();
        assert_eq!(
            t.projected_free(),
            &[cap - Resources::new(1, 12, 100.0)][..]
        );
    }

    #[test]
    fn quota_only_epoch_change_keeps_cached_parts() {
        let mut t = DirtyTracker::new();
        let jobs = vec![running(1)];
        let out = vec![Assignment {
            job: 1,
            allocation: Allocation::on_node(0, Resources::new(1, 12, 100.0)),
            plan: ExecutionPlan::dp(1),
        }];
        record_simple(&mut t, &jobs, &out, true);
        t.parts.insert(
            1,
            CachedParts {
                model: None,
                search: PlanSearch::Fixed(ExecutionPlan::dp(1)),
                curve: None,
                baseline: Some(1.0),
                minimum: Resources::new(1, 1, 1.0),
            },
        );

        // Quotas moved, registry and capacity did not: every plan
        // certificate dies, but the curve/baseline/minimum cache survives.
        let mut quota_change = epoch();
        quota_change.tenants = vec![Tenant::new("t", Resources::new(4, 8, 100.0))];
        let cls = t.classify(&jobs, &quota_change, 0.97);
        assert!(!cls.epoch_matched);
        assert_eq!(cls.verdict_of(1), Some(Verdict::Dirty));
        assert!(cls.parts_reusable);
        assert!(t.parts.contains_key(&1));

        // A capacity change (total GPUs moved) kills the parts too.
        let mut capacity_change = epoch();
        capacity_change.total_gpus = 16;
        let cls = t.classify(&jobs, &capacity_change, 0.97);
        assert!(!cls.epoch_matched && !cls.parts_reusable);
        assert!(t.parts.is_empty());
    }

    #[test]
    fn empty_delta_classifies_only_running_suspects() {
        let mut t = DirtyTracker::new();
        let mut jobs = vec![running(1)];
        for id in 2..6 {
            jobs.push(snap(id, JobStatus::Queued));
        }
        let out = vec![Assignment {
            job: 1,
            allocation: Allocation::on_node(0, Resources::new(1, 12, 100.0)),
            plan: ExecutionPlan::dp(1),
        }];
        record_simple(&mut t, &jobs, &out, true);

        t.push_delta(&JobDelta::default());
        let cls = t.classify(&jobs, &epoch(), 0.97);
        // One frozen-bit recheck for the running job; the four queued jobs
        // are trusted clean without touching their fingerprints.
        assert_eq!(cls.classified, 1);
        assert_eq!(cls.dirty_len(), 0);
        assert_eq!(cls.clean_len(), 5);
        assert!(cls.fast_eligible());
        // The delta is one-shot: the next round falls back to the full
        // pass and fingerprints everything.
        let cls = t.classify(&jobs, &epoch(), 0.97);
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
        let out = vec![Assignment {
            job: 1,
            allocation: Allocation::on_node(0, Resources::new(1, 12, 100.0)),
            plan: ExecutionPlan::dp(1),
        }];
        record_simple(&mut t, &jobs, &out, true);

        // Job 2 re-queued at a later time; the engine marks it.
        let mut jobs2 = jobs.clone();
        jobs2[1].queued_since = 50.0;
        t.push_delta(&JobDelta {
            changed: vec![2],
            removed: vec![],
        });
        let cls = t.classify(&jobs2, &epoch(), 0.97);
        assert_eq!(cls.verdict_of(2), Some(Verdict::Dirty));
        assert_eq!(cls.verdict_of(3), Some(Verdict::QuietSkip));
        // Job 2's fingerprint compare + job 1's frozen recheck.
        assert_eq!(cls.classified, 2);
        assert!(!cls.fast_eligible());
    }

    #[test]
    fn delta_removed_job_blocks_the_fast_path() {
        let mut t = DirtyTracker::new();
        let jobs = vec![running(1), snap(2, JobStatus::Queued)];
        let out = vec![Assignment {
            job: 1,
            allocation: Allocation::on_node(0, Resources::new(1, 12, 100.0)),
            plan: ExecutionPlan::dp(1),
        }];
        record_simple(&mut t, &jobs, &out, true);

        // Job 2 finished and left the snapshot set.
        let jobs2 = vec![jobs[0].clone()];
        t.push_delta(&JobDelta {
            changed: vec![],
            removed: vec![2],
        });
        let cls = t.classify(&jobs2, &epoch(), 0.97);
        // The survivor stays clean, but a vanished job frees capacity the
        // quiet certificates never saw: no fast path.
        assert_eq!(cls.dirty_len(), 0);
        assert!(!cls.fast_eligible());
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
        let out = vec![Assignment {
            job: 1,
            allocation: Allocation::on_node(0, Resources::new(1, 12, 100.0)),
            plan: ExecutionPlan::dp(1),
        }];
        record_simple(&mut t, &young, &out, true);

        // Runtime grew past the gate with no engine transition: the empty
        // delta must still catch the flip via the running-suspect recheck.
        t.push_delta(&JobDelta::default());
        let cls = t.classify(&old, &epoch(), 0.97);
        assert_eq!(cls.verdict_of(1), Some(Verdict::Dirty));
        assert_eq!(cls.classified, 1);
    }

    #[test]
    fn push_delta_merges_sorted_unions() {
        let mut t = DirtyTracker::new();
        t.push_delta(&JobDelta {
            changed: vec![1, 5],
            removed: vec![9],
        });
        t.push_delta(&JobDelta {
            changed: vec![3, 5],
            removed: vec![2],
        });
        let d = t.pending_delta.as_ref().unwrap();
        assert_eq!(d.changed, vec![1, 3, 5]);
        assert_eq!(d.removed, vec![2, 9]);
        t.clear_delta();
        assert!(t.pending_delta.is_none());
    }

    #[test]
    fn job_index_dense_and_sparse_agree() {
        let dense_jobs: Vec<JobSnapshot> =
            (0..40u64).map(|id| snap(id, JobStatus::Queued)).collect();
        let mut ix = JobIndex::default();
        ix.rebuild(&dense_jobs);
        assert!(ix.dense);
        for (pos, s) in dense_jobs.iter().enumerate() {
            assert_eq!(ix.get(s.id()), Some(pos));
        }
        assert_eq!(ix.get(40), None);

        // Sparse ids force the sorted-vec fallback.
        let sparse_jobs: Vec<JobSnapshot> = (0..4u64)
            .map(|i| snap(i * 1_000_000 + 17, JobStatus::Queued))
            .collect();
        ix.rebuild(&sparse_jobs);
        assert!(!ix.dense);
        for (pos, s) in sparse_jobs.iter().enumerate() {
            assert_eq!(ix.get(s.id()), Some(pos));
        }
        assert_eq!(ix.get(18), None);

        // Rebuilding back to dense invalidates all stale entries.
        ix.rebuild(&dense_jobs);
        assert_eq!(ix.get(17), Some(17));
        assert_eq!(ix.get(1_000_017), None);
    }
}
