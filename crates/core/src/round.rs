//! The shared round pipeline every policy builds on.
//!
//! Each scheduling round follows the same skeleton regardless of policy:
//! snapshot the jobs, decide which running jobs to keep (charging their
//! allocations against per-node free capacity), pick queued jobs in some
//! order, gang-pack them into the remaining space, and emit the combined
//! assignment list. Before this module, every baseline
//! (`sia`/`synergy`/`antman`/`equal`) and the Rubick policy carried its own
//! copy of that scaffolding (`free_after_keeps`, `keep_running`, manual
//! free-ledger arithmetic); [`RoundContext`] is the single implementation
//! they all share now.
//!
//! The context is deliberately dumb: it owns the free-resource ledger and
//! the growing assignment list, and nothing else. Policy-specific logic —
//! which jobs to keep, what resources to want, which plan to run — stays in
//! the policies.

use crate::common::pack_gang;
use rubick_model::Resources;
use rubick_sim::cluster::{Allocation, Cluster};
use rubick_sim::job::{JobId, JobStatus};
use rubick_sim::scheduler::{Assignment, JobSnapshot};

/// Per-round bookkeeping shared by all policies: the job snapshot, the
/// per-node free-resource ledger, and the assignments committed so far.
///
/// The ledger starts at full node capacity; every kept or committed
/// assignment is charged against it, and evictions refund it. Policies
/// never touch raw `Vec<Resources>` arithmetic for keeps/commits — only
/// Rubick's plan search mutates the ledger directly (via
/// [`RoundContext::free_mut`]) while exploring candidate allocations.
#[derive(Debug, Clone)]
pub struct RoundContext<'a> {
    jobs: &'a [JobSnapshot],
    free: Vec<Resources>,
    out: Vec<Assignment>,
}

impl<'a> RoundContext<'a> {
    /// Starts a round: the ledger holds every *up* node's full capacity
    /// (a failed node contributes zero, so no policy can place work on it)
    /// and no assignment is committed yet.
    pub fn new(cluster: &Cluster, jobs: &'a [JobSnapshot]) -> Self {
        RoundContext {
            jobs,
            free: cluster
                .nodes()
                .iter()
                .map(|n| n.schedulable_capacity())
                .collect(),
            out: Vec::new(),
        }
    }

    /// The job snapshot this round schedules over (borrowed for the full
    /// round, so iterating it does not lock the context).
    pub fn jobs(&self) -> &'a [JobSnapshot] {
        self.jobs
    }

    /// Free resources per node, after all charges so far.
    pub fn free(&self) -> &[Resources] {
        &self.free
    }

    /// Mutable access to the free ledger, for policies whose search
    /// speculatively moves resources around (Rubick's expand/shrink
    /// passes). Callers are responsible for leaving the ledger consistent
    /// with the assignments they end up committing.
    pub fn free_mut(&mut self) -> &mut [Resources] {
        &mut self.free
    }

    /// Subtracts an allocation from the ledger.
    pub fn charge(&mut self, allocation: &Allocation) {
        for (node, res) in &allocation.per_node {
            self.free[*node] -= *res;
        }
    }

    /// Returns an allocation to the ledger.
    pub fn refund(&mut self, allocation: &Allocation) {
        for (node, res) in &allocation.per_node {
            self.free[*node] += *res;
        }
    }

    /// Keeps a running job on its current allocation and plan: charges the
    /// ledger and commits the verbatim assignment. Returns `false` (and
    /// does nothing) for jobs that are not running.
    pub fn keep(&mut self, job: &JobSnapshot) -> bool {
        if let JobStatus::Running {
            allocation, plan, ..
        } = &job.status
        {
            let assignment = Assignment {
                job: job.id(),
                allocation: allocation.clone(),
                plan: *plan,
            };
            self.charge(&assignment.allocation);
            self.out.push(assignment);
            true
        } else {
            false
        }
    }

    /// Commits a running job's current assignment *without* charging the
    /// ledger. This is the "could not improve, fall back to the status
    /// quo" path (e.g. Sia failing to re-place a rescaled job): the round
    /// already treated the job's old resources as reclaimable, so charging
    /// here would double-count them. Returns `false` for non-running jobs.
    pub fn keep_uncharged(&mut self, job: &JobSnapshot) -> bool {
        if let JobStatus::Running {
            allocation, plan, ..
        } = &job.status
        {
            self.out.push(Assignment {
                job: job.id(),
                allocation: allocation.clone(),
                plan: *plan,
            });
            true
        } else {
            false
        }
    }

    /// Keeps every running job matching `pred` (in snapshot order),
    /// returning how many were kept.
    pub fn keep_running_where(&mut self, mut pred: impl FnMut(&JobSnapshot) -> bool) -> usize {
        let jobs = self.jobs;
        let mut kept = 0;
        for job in jobs {
            if pred(job) && self.keep(job) {
                kept += 1;
            }
        }
        kept
    }

    /// Charges every running job's allocation against the ledger *without*
    /// committing assignments, in snapshot order, and passes each job's
    /// `(position in the snapshot, allocation)` to `each`. This is Rubick's
    /// entry point: it seeds its own mutable allocation table from the
    /// pairs and decides later which jobs actually keep, shrink or grow
    /// their resources.
    pub fn charge_running(&mut self, mut each: impl FnMut(usize, &'a Allocation)) {
        let jobs = self.jobs;
        for (pos, job) in jobs.iter().enumerate() {
            if let JobStatus::Running { allocation, .. } = &job.status {
                self.charge(allocation);
                each(pos, allocation);
            }
        }
    }

    /// Queued jobs matching `pred`, in FIFO order (`queued_since`, then id
    /// as the deterministic tie-break) — the arrival order every baseline
    /// and Rubick's admission passes use.
    pub fn queued_fifo(&self, mut pred: impl FnMut(&JobSnapshot) -> bool) -> Vec<&'a JobSnapshot> {
        let mut queued: Vec<(u64, &'a JobSnapshot)> = self
            .jobs
            .iter()
            .filter(|j| j.status.is_queued() && pred(j))
            .map(|j| (total_order_key(j.queued_since), j))
            .collect();
        // The precomputed integer key orders exactly like `f64::total_cmp`
        // but sorts without re-deriving float comparisons per probe; with
        // the id tie-break the whole key is a plain `(u64, JobId)` pair, so
        // the sort is branch-cheap even on 100k-job rounds.
        queued.sort_by_key(|(key, j)| (*key, j.id()));
        queued.into_iter().map(|(_, j)| j).collect()
    }

    /// Tries to gang-pack `want` into the current free ledger (fewest
    /// nodes first) without committing anything.
    pub fn try_pack(&self, want: Resources) -> Option<Allocation> {
        pack_gang(&self.free, want)
    }

    /// Commits an assignment produced by the policy, charging its
    /// allocation against the ledger.
    pub fn commit(&mut self, assignment: Assignment) {
        self.charge(&assignment.allocation);
        self.out.push(assignment);
    }

    /// Removes a previously committed assignment (e.g. AntMan evicting a
    /// tentatively kept best-effort job to make room for a guaranteed
    /// one), refunding its allocation. Returns the evicted assignment, or
    /// `None` if `job` has nothing committed.
    pub fn evict(&mut self, job: JobId) -> Option<Assignment> {
        let idx = self.out.iter().position(|a| a.job == job)?;
        let assignment = self.out.remove(idx);
        self.refund(&assignment.allocation);
        Some(assignment)
    }

    /// The assignments committed so far, in commit order.
    pub fn committed(&self) -> &[Assignment] {
        &self.out
    }

    /// Finishes the round, yielding the assignment list handed back to the
    /// engine.
    pub fn into_assignments(self) -> Vec<Assignment> {
        self.out
    }
}

/// Maps an `f64` to a `u64` that sorts in exactly `f64::total_cmp` order:
/// negative floats have their magnitude bits inverted (reversing their
/// order), non-negatives get the sign bit set (placing them above every
/// negative).
fn total_order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits ^ (1 << 63)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubick_model::{ExecutionPlan, ModelSpec, NodeShape};
    use rubick_sim::job::{JobClass, JobSpec};
    use rubick_sim::tenant::TenantId;
    use std::sync::Arc;

    fn snap(id: JobId, status: JobStatus, queued_since: f64) -> JobSnapshot {
        JobSnapshot {
            spec: Arc::new(JobSpec {
                id,
                model: ModelSpec::roberta_large(),
                global_batch: 64,
                submit_time: 0.0,
                target_batches: 100,
                requested: Resources::new(4, 16, 100.0),
                initial_plan: ExecutionPlan::dp(4),
                class: JobClass::Guaranteed,
                tenant: TenantId::default(),
            }),
            status,
            remaining_batches: 100.0,
            queued_since,
            runtime: 0.0,
            reconfig_count: 0,
            baseline_throughput: None,
        }
    }

    fn running(id: JobId, node: usize, gpus: u32) -> JobSnapshot {
        snap(
            id,
            JobStatus::Running {
                allocation: Allocation::on_node(node, Resources::new(gpus, 8, 50.0)),
                plan: ExecutionPlan::dp(gpus),
                throughput: 1.0,
                resume_at: 0.0,
            },
            0.0,
        )
    }

    #[test]
    fn keeps_charge_the_ledger_and_evicts_refund_it() {
        let cluster = Cluster::new(1, NodeShape::a800());
        let jobs = vec![running(1, 0, 4), snap(2, JobStatus::Queued, 5.0)];
        let mut ctx = RoundContext::new(&cluster, &jobs);
        let capacity = ctx.free()[0];
        assert_eq!(ctx.keep_running_where(|_| true), 1);
        assert_eq!(ctx.free()[0].gpus, capacity.gpus - 4);
        assert_eq!(ctx.committed().len(), 1);
        let evicted = ctx.evict(1).unwrap();
        assert_eq!(evicted.job, 1);
        assert_eq!(ctx.free()[0], capacity);
        assert!(ctx.evict(1).is_none());
    }

    #[test]
    fn keep_uncharged_leaves_the_ledger_alone() {
        let cluster = Cluster::new(1, NodeShape::a800());
        let jobs = vec![running(1, 0, 4)];
        let mut ctx = RoundContext::new(&cluster, &jobs);
        let capacity = ctx.free()[0];
        assert!(ctx.keep_uncharged(&jobs[0]));
        assert_eq!(ctx.free()[0], capacity);
        assert_eq!(ctx.into_assignments().len(), 1);
    }

    #[test]
    fn queued_fifo_orders_by_arrival_then_id() {
        let cluster = Cluster::new(1, NodeShape::a800());
        let jobs = vec![
            snap(3, JobStatus::Queued, 10.0),
            snap(1, JobStatus::Queued, 10.0),
            snap(2, JobStatus::Queued, 5.0),
            running(4, 0, 2),
        ];
        let ctx = RoundContext::new(&cluster, &jobs);
        let order: Vec<JobId> = ctx.queued_fifo(|_| true).iter().map(|j| j.id()).collect();
        assert_eq!(order, vec![2, 1, 3]);
    }

    #[test]
    fn queued_fifo_sort_key_matches_total_cmp_across_signs() {
        // Warm-start traces produce negative `queued_since` (submitted
        // before t=0), so the integer sort key must order negatives,
        // zeroes and positives exactly like `f64::total_cmp`.
        let cluster = Cluster::new(1, NodeShape::a800());
        let times = [3.5, -120.0, 0.0, -0.0, -1.5, 42.0, f64::MIN_POSITIVE];
        let jobs: Vec<JobSnapshot> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| snap(i as JobId + 1, JobStatus::Queued, t))
            .collect();
        let ctx = RoundContext::new(&cluster, &jobs);
        let got: Vec<f64> = ctx
            .queued_fifo(|_| true)
            .iter()
            .map(|j| j.queued_since)
            .collect();
        let mut want = times;
        want.sort_by(f64::total_cmp);
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn charge_running_returns_pairs_without_committing() {
        let cluster = Cluster::new(2, NodeShape::a800());
        let jobs = vec![running(1, 0, 4), running(2, 1, 8)];
        let mut ctx = RoundContext::new(&cluster, &jobs);
        let mut pairs = Vec::new();
        ctx.charge_running(|pos, alloc| pairs.push((pos, alloc.gpus())));
        assert_eq!(pairs, [(0, 4), (1, 8)]);
        assert!(ctx.committed().is_empty());
        assert_eq!(ctx.free()[1].gpus, NodeShape::a800().capacity().gpus - 8);
    }

    #[test]
    fn try_pack_and_commit_round_trip() {
        let cluster = Cluster::new(1, NodeShape::a800());
        let jobs: Vec<JobSnapshot> = vec![];
        let mut ctx = RoundContext::new(&cluster, &jobs);
        let want = Resources::new(2, 8, 50.0);
        let alloc = ctx.try_pack(want).unwrap();
        let before = ctx.free()[0];
        ctx.commit(Assignment {
            job: 7,
            allocation: alloc,
            plan: ExecutionPlan::dp(2),
        });
        assert_eq!(ctx.free()[0].gpus, before.gpus - 2);
        assert_eq!(ctx.into_assignments().len(), 1);
    }
}
