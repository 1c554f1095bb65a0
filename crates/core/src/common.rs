//! Policy building blocks shared by Rubick and the baselines.
//!
//! * [`PlanSearch`] (defined in `rubick-model`, re-exported here) — how a
//!   policy is allowed to (re)configure execution plans: full
//!   reconfiguration (Rubick), Sia-style DP rescaling (Sia, Rubick-R), or a
//!   frozen plan (Synergy, AntMan, Rubick-N). Job curves under any mode come
//!   from [`ModelRegistry::gpu_curve`].
//! * [`pack_gang`] — the placement primitive: turn "this job should get
//!   these totals" into a per-node [`Allocation`] against free capacity.
//! * [`job_baseline`] — a job's SLA baseline derived from the registry's
//!   fitted models.
//! * `JobCache` — what a policy derives for each job from the registry,
//!   kept across rounds.
//! * `JobIndex` — a round's job id → slice position map.

use crate::registry::ModelRegistry;
use rubick_model::prelude::*;
pub use rubick_model::PlanSearch;
use rubick_sim::cluster::Allocation;
use rubick_sim::job::{JobId, JobSpec};
use rubick_sim::scheduler::JobSnapshot;
use std::ops::Deref;
use std::sync::Arc;

/// What a policy derives for one job and keeps in a [`JobCache`]: a pure
/// function of the job's spec and baseline, the registry's contents and
/// the schedulable GPU count.
pub(crate) trait CacheEntry {
    /// The policy named when a debug cross-check fails.
    const POLICY: &'static str;

    /// Whether `self` is what a fresh resolution, `fresh`, derived.
    fn same(&self, fresh: &Self) -> bool;
}

/// Whether `a` and `b` are both `None` or the same `Arc`.
pub(crate) fn same_arc<T>(a: &Option<Arc<T>>, b: &Option<Arc<T>>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        (a, b) => a.is_none() && b.is_none(),
    }
}

/// One job's cached entry and the inputs it was resolved for.
pub(crate) struct Cached<E> {
    /// The spec the entry was resolved for. A hit needs this very `Arc`,
    /// so a re-submitted id with a new spec never reads a stale entry.
    spec: Arc<JobSpec>,
    /// The snapshot's baseline (bits) the entry was resolved with.
    baseline: Option<u64>,
    entry: E,
}

impl<E> Cached<E> {
    /// The job the entry belongs to.
    pub(crate) fn id(&self) -> JobId {
        self.spec.id
    }
}

impl<E> Deref for Cached<E> {
    type Target = E;

    fn deref(&self) -> &E {
        &self.entry
    }
}

/// Per-job entries, valid for one `(registry version, schedulable GPUs)`
/// pair and cleared when either changes — that covers refits and node
/// failures. Entries sit in the last round's snapshot
/// order, which the engine gives sorted by job id, so one pass finds every
/// job that stayed; an unsorted slice only costs misses. Jobs absent from
/// a round are dropped. A pure cache: a fresh scheduler makes the same
/// decisions. A refresh edits the entries in place: a round that gains or
/// loses one job compares the others by pointer and moves none of them.
pub(crate) struct JobCache<E> {
    key: Option<(u64, u32)>,
    pub(crate) entries: Vec<Cached<E>>,
}

impl<E> Default for JobCache<E> {
    fn default() -> Self {
        JobCache {
            key: None,
            entries: Vec::new(),
        }
    }
}

impl<E: CacheEntry> JobCache<E> {
    /// Aligns the cache with `jobs` and returns the entries, where
    /// `entries[pos]` is `jobs[pos]`'s. A job without a hit gets
    /// `resolve(job)`. Debug builds re-resolve every hit and assert it
    /// is the [same](CacheEntry::same).
    ///
    /// `entries[..pos]` is aligned with `jobs[..pos]` and `entries[pos..]`
    /// holds the older entries not yet reached, in order. Each job drops
    /// the run of those below its id, then keeps, replaces or inserts its
    /// own entry at `pos`.
    pub(crate) fn refresh(
        &mut self,
        registry: &ModelRegistry,
        total_gpus: u32,
        jobs: &[JobSnapshot],
        mut resolve: impl FnMut(&JobSnapshot) -> E,
    ) -> &[Cached<E>] {
        let key = Some((registry.version(), total_gpus));
        if self.key != key {
            self.key = key;
            self.entries.clear();
        }
        let entries = &mut self.entries;
        for (pos, job) in jobs.iter().enumerate() {
            let baseline = job.baseline_throughput.map(f64::to_bits);
            // The same spec `Arc` means the same id, so the usual hit
            // never reads either spec.
            let same_spec = |e: &Cached<E>| Arc::ptr_eq(&e.spec, &job.spec);
            if !entries.get(pos).is_some_and(same_spec) {
                let gone = entries[pos..]
                    .iter()
                    .take_while(|e| e.id() < job.id())
                    .count();
                entries.drain(pos..pos + gone);
            }
            if entries
                .get(pos)
                .is_some_and(|e| same_spec(e) && e.baseline == baseline)
            {
                debug_assert!(
                    entries[pos].same(&resolve(job)),
                    "stale {} cache entry for job {}",
                    E::POLICY,
                    job.id()
                );
                continue;
            }
            #[cfg(test)]
            testing::RESOLVED.with(|n| n.set(n.get() + 1));
            let fresh = Cached {
                spec: Arc::clone(&job.spec),
                baseline,
                entry: resolve(job),
            };
            match entries.get_mut(pos) {
                Some(cached) if cached.id() == job.id() => *cached = fresh,
                _ => entries.insert(pos, fresh),
            }
        }
        entries.truncate(jobs.len());
        debug_assert!(
            entries.len() == jobs.len()
                && entries
                    .iter()
                    .zip(jobs)
                    .all(|(e, job)| Arc::ptr_eq(&e.spec, &job.spec)),
            "{} cache entries out of line with the jobs",
            E::POLICY
        );
        entries
    }
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
    #[inline]
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

    /// The slice position of `id`, which must be in the current round.
    #[inline]
    pub(crate) fn pos(&self, id: JobId) -> usize {
        self.get(id).expect("job in the round")
    }
}

/// Packs a resource total onto the cluster's free capacity.
///
/// Strategy (matching how gang schedulers place jobs):
/// 1. prefer the **best-fit single node** — the node with the least free
///    GPUs that still fits the whole request (minimizes fragmentation and
///    keeps communication on NVLink);
/// 2. otherwise spread over the **fewest nodes**, taking the largest free
///    GPU blocks first.
///
/// CPUs and memory are distributed proportionally to the GPUs taken from
/// each node, capped by that node's free amounts. Returns `None` when the
/// cluster lacks `want.gpus` free GPUs in total.
///
/// ```
/// use rubick_core::pack_gang;
/// use rubick_model::Resources;
///
/// let free = vec![Resources::new(2, 24, 400.0), Resources::new(8, 96, 1600.0)];
/// // 2 GPUs fit on node 0 (best fit), not node 1.
/// let alloc = pack_gang(&free, Resources::new(2, 8, 50.0)).unwrap();
/// assert_eq!(alloc.per_node[0].0, 0);
/// // 10 GPUs must spread across both nodes.
/// let alloc = pack_gang(&free, Resources::new(10, 40, 100.0)).unwrap();
/// assert_eq!(alloc.gpus(), 10);
/// assert_eq!(alloc.per_node.len(), 2);
/// ```
pub fn pack_gang(free: &[Resources], want: Resources) -> Option<Allocation> {
    if want.gpus == 0 {
        // A CPU-only grant goes to the single node with the most free CPUs.
        let (node, f) = free.iter().enumerate().max_by_key(|(_, f)| f.cpus)?;
        return Some(Allocation::on_node(
            node,
            Resources::new(0, want.cpus.min(f.cpus), want.mem_gb.min(f.mem_gb)),
        ));
    }
    let total_free: u32 = free.iter().map(|f| f.gpus).sum();
    if total_free < want.gpus {
        return None;
    }
    // Best-fit single node.
    if let Some((node, f)) = free
        .iter()
        .enumerate()
        .filter(|(_, f)| f.gpus >= want.gpus)
        .min_by_key(|(_, f)| f.gpus)
    {
        return Some(Allocation::on_node(
            node,
            Resources::new(want.gpus, want.cpus.min(f.cpus), want.mem_gb.min(f.mem_gb)),
        ));
    }
    // Spread: largest free blocks first (fewest nodes involved).
    let mut order: Vec<usize> = (0..free.len()).filter(|&i| free[i].gpus > 0).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(free[i].gpus), i));
    let mut alloc = Allocation::empty();
    let mut left = want.gpus;
    for &i in &order {
        if left == 0 {
            break;
        }
        let take = free[i].gpus.min(left);
        left -= take;
        let frac = take as f64 / want.gpus as f64;
        let cpus = ((want.cpus as f64 * frac).round() as u32).min(free[i].cpus);
        let mem = (want.mem_gb * frac).min(free[i].mem_gb);
        alloc.add(i, Resources::new(take, cpus, mem));
    }
    debug_assert_eq!(left, 0);
    Some(alloc)
}

/// The SLA baseline throughput of a job: its measured admission baseline
/// when available, otherwise the model's prediction for the requested
/// resources with the user's plan.
pub fn job_baseline(registry: &ModelRegistry, snap: &JobSnapshot) -> Option<f64> {
    if let Some(b) = snap.baseline_throughput {
        return Some(b);
    }
    let model = registry.model(&snap.spec.model.name)?;
    let shape = registry.shape();
    let placement = Placement::spread(
        snap.spec.requested.gpus.max(1),
        shape.gpus,
        snap.spec.requested.cpus,
        snap.spec.requested.mem_gb,
    );
    model
        .throughput(&snap.spec.initial_plan, snap.spec.global_batch, &placement)
        .ok()
}

/// Helpers shared by the crate's unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use rubick_model::{ExecutionPlan, ModelSpec, Resources};
    use rubick_sim::job::{JobClass, JobSpec, JobStatus};
    use rubick_sim::scheduler::JobSnapshot;
    use rubick_sim::tenant::TenantId;
    use std::sync::Arc;

    thread_local! {
        /// Cache entries this thread resolved on a miss.
        pub static RESOLVED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A guaranteed job of `n` batches of `model`'s default size, asking
    /// for `gpus` GPUs with six CPUs and 100 GB each.
    pub fn job(id: u64, model: ModelSpec, gpus: u32, plan: ExecutionPlan, n: u64) -> JobSpec {
        JobSpec {
            id,
            global_batch: model.default_batch,
            submit_time: 0.0,
            target_batches: n,
            requested: Resources::new(gpus, gpus * 6, gpus as f64 * 100.0),
            initial_plan: plan,
            class: JobClass::Guaranteed,
            tenant: TenantId::default(),
            model,
        }
    }

    /// `spec`'s snapshot in `status`, with no work done, no queueing time
    /// and no baseline.
    pub fn snapshot(spec: JobSpec, status: JobStatus) -> JobSnapshot {
        JobSnapshot {
            remaining_batches: spec.target_batches as f64,
            spec: Arc::new(spec),
            status,
            queued_since: 0.0,
            runtime: 0.0,
            reconfig_count: 0,
            baseline_throughput: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{self, job, snapshot};
    use super::*;
    use proptest::prelude::*;
    use rubick_sim::job::JobStatus;

    /// A test entry: the serial number of the resolution that made it.
    /// Serials differ by design, so the debug check accepts any pair.
    struct Serial(u64);

    impl CacheEntry for Serial {
        const POLICY: &'static str = "test";

        fn same(&self, _: &Self) -> bool {
            true
        }
    }

    /// A hit, both key changes, a departure, a re-submitted id, a new
    /// baseline and an unsorted slice. An entry that keeps its serial hit.
    #[test]
    fn job_cache_hits_only_the_same_job_under_the_same_key() {
        let registry = ModelRegistry::new(ClusterEnv::a800(), NodeShape::a800());
        let (mut cache, mut serial) = (JobCache::default(), 0);
        // Each entry's `(job, serial)` after a refresh on `gpus` GPUs.
        let mut refresh = |jobs: &[JobSnapshot], gpus| -> Vec<(JobId, u64)> {
            let entries = cache.refresh(&registry, gpus, jobs, |_| {
                serial += 1;
                Serial(serial)
            });
            entries.iter().map(|e| (e.id(), e.0)).collect()
        };
        let mut jobs: Vec<_> = (1..=3)
            .map(|id| {
                let spec = job(id, ModelSpec::roberta_large(), 1, ExecutionPlan::dp(1), 100);
                snapshot(spec, JobStatus::Queued)
            })
            .collect();
        let first = refresh(&jobs, 8);
        assert_eq!(refresh(&jobs, 8), first);
        let moved = refresh(&jobs, 16);
        assert!(moved
            .iter()
            .zip(&first)
            .all(|(a, b)| a.0 == b.0 && a.1 > b.1));
        registry.insert(ThroughputModel::new(
            ModelSpec::roberta_large(),
            PerfParams::default(),
            ClusterEnv::a800(),
            NodeShape::a800(),
        ));
        let bumped = refresh(&jobs, 16);
        assert!(bumped.iter().zip(&moved).all(|(a, b)| a.1 > b.1));
        // A departed job is dropped, so it misses when it comes back.
        let departed = jobs.remove(1);
        assert_eq!(refresh(&jobs, 16), [bumped[0], bumped[2]]);
        jobs.insert(1, departed);
        let back = refresh(&jobs, 16);
        assert_eq!((back[0], back[2]), (bumped[0], bumped[2]));
        assert!(back[1].1 > bumped[2].1);
        // A new spec `Arc`, equal in value, and a new baseline miss.
        jobs[0].spec = Arc::new(JobSpec::clone(&jobs[0].spec));
        jobs[2].baseline_throughput = Some(5.0);
        let renewed = refresh(&jobs, 16);
        assert_eq!(renewed[1], back[1]);
        assert!(renewed[0].1 > back[1].1 && renewed[2].1 > back[1].1);
        // An unsorted slice still aligns each entry with its job and costs
        // only misses: the refresh keeps job 3, then misses 2 and 1.
        jobs.swap(0, 2);
        let unsorted = refresh(&jobs, 16);
        assert_eq!(unsorted[0], renewed[2]);
        assert_eq!([unsorted[1].0, unsorted[2].0], [2, 1]);
        assert!(unsorted[1].1 > renewed[2].1 && unsorted[2].1 > renewed[2].1);
    }

    /// A test entry naming the inputs it was resolved from, so `same`
    /// tells a stale entry from a fresh one.
    #[derive(Debug, PartialEq)]
    struct Inputs {
        spec: *const JobSpec,
        baseline: Option<u64>,
        key: (u64, u32),
    }

    impl CacheEntry for Inputs {
        const POLICY: &'static str = "test";

        fn same(&self, fresh: &Self) -> bool {
            self == fresh
        }
    }

    /// The misses of a reference merge that walks `last` (the previous
    /// slice, empty after a key change) and `jobs` in order, dropping the
    /// old entries below each job's id.
    fn merge_misses(last: &[JobSnapshot], jobs: &[JobSnapshot]) -> u64 {
        let mut old = last.iter().peekable();
        let mut misses = 0;
        for job in jobs {
            while old.next_if(|e| e.id() < job.id()).is_some() {}
            let hit = old.next_if(|e| e.id() == job.id()).is_some_and(|e| {
                Arc::ptr_eq(&e.spec, &job.spec) && e.baseline_throughput == job.baseline_throughput
            });
            misses += u64::from(!hit);
        }
        misses
    }

    proptest! {
        /// Random rounds of arrivals (below and above the live ids), runs
        /// of departures, re-submitted specs, new baselines, key changes
        /// and unsorted slices: after each, every entry is its job's, as
        /// a cold cache would resolve it, and exactly the misses resolved.
        #[test]
        fn in_place_refresh_equals_a_cold_cache(rounds in prop::collection::vec(
            prop::collection::vec((0u32..8, 0u64..48), 0..8),
            1..24,
        )) {
            let registry = ModelRegistry::new(ClusterEnv::a800(), NodeShape::a800());
            let snap = |id| {
                let spec = job(id, ModelSpec::roberta_large(), 1, ExecutionPlan::dp(1), 100);
                snapshot(spec, JobStatus::Queued)
            };
            let (mut cache, mut gpus) = (JobCache::default(), 8);
            let mut live: Vec<JobSnapshot> = (10..20).map(snap).collect();
            let mut last: Vec<JobSnapshot> = Vec::new();
            for ops in rounds {
                let mut unsorted = false;
                for (op, x) in ops {
                    let at = x as usize % live.len().max(1);
                    match op {
                        // An arrival: any free id, or one above them all.
                        0 | 1 => {
                            let top = live.last().map_or(0, |j| j.id() + 1);
                            let id = if op == 0 { x } else { top + x % 3 };
                            if let Err(i) = live.binary_search_by_key(&id, JobSnapshot::id) {
                                live.insert(i, snap(id));
                            }
                        }
                        // A run of up to three adjacent departures.
                        2 => {
                            let end = (at + 1 + x as usize % 3).min(live.len());
                            live.drain(at..end);
                        }
                        3 if !live.is_empty() => {
                            live[at].spec = Arc::new(JobSpec::clone(&live[at].spec));
                        }
                        4 if !live.is_empty() => {
                            live[at].baseline_throughput = (x % 2 == 0).then_some(x as f64);
                        }
                        5 => registry.insert(ThroughputModel::new(
                            ModelSpec::roberta_large(),
                            PerfParams::default(),
                            ClusterEnv::a800(),
                            NodeShape::a800(),
                        )),
                        6 => gpus = 8 * (1 + x as u32 % 3),
                        7 => unsorted = true,
                        _ => {}
                    }
                }
                let mut jobs = live.clone();
                if unsorted {
                    jobs.reverse();
                }
                let key = (registry.version(), gpus);
                if cache.key != Some(key) {
                    last.clear();
                }
                let resolve = |j: &JobSnapshot| Inputs {
                    spec: Arc::as_ptr(&j.spec),
                    baseline: j.baseline_throughput.map(f64::to_bits),
                    key,
                };
                let before = testing::RESOLVED.with(|n| n.get());
                let entries = cache.refresh(&registry, gpus, &jobs, resolve);
                prop_assert_eq!(entries.len(), jobs.len());
                for (e, j) in entries.iter().zip(&jobs) {
                    prop_assert!(Arc::ptr_eq(&e.spec, &j.spec));
                    prop_assert_eq!(&e.entry, &resolve(j));
                }
                let resolved = testing::RESOLVED.with(|n| n.get()) - before;
                prop_assert_eq!(resolved, merge_misses(&last, &jobs));
                // The same round again hits every job and moves nothing.
                let capacity = cache.entries.capacity();
                cache.refresh(&registry, gpus, &jobs, resolve);
                prop_assert_eq!(testing::RESOLVED.with(|n| n.get()) - before, resolved);
                prop_assert_eq!(cache.entries.capacity(), capacity);
                last = jobs;
            }
        }
    }

    #[test]
    fn job_index_dense_and_sparse_agree() {
        let snap = |id| {
            let spec = job(id, ModelSpec::roberta_large(), 1, ExecutionPlan::dp(1), 10);
            snapshot(spec, JobStatus::Queued)
        };
        let dense_jobs: Vec<JobSnapshot> = (0..40u64).map(snap).collect();
        let mut ix = JobIndex::default();
        ix.rebuild(&dense_jobs);
        assert!(ix.dense);
        for (pos, s) in dense_jobs.iter().enumerate() {
            assert_eq!(ix.get(s.id()), Some(pos));
        }
        assert_eq!(ix.get(40), None);

        // Sparse ids force the sorted-vec fallback.
        let sparse_jobs: Vec<JobSnapshot> = (0..4u64).map(|i| snap(i * 1_000_000 + 17)).collect();
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

    #[test]
    fn rescale_dp_keeps_structure() {
        let base = ExecutionPlan::three_d(4, 2, 2, 8);
        let scaled = PlanSearch::rescale_dp(&base, 8, 64).unwrap();
        assert_eq!(scaled.parallel.dp, 2);
        assert_eq!(scaled.parallel.tp, 2);
        assert_eq!(scaled.parallel.pp, 2);
        // Non-multiples of t*p are rejected.
        assert!(PlanSearch::rescale_dp(&base, 6, 64).is_none());
    }

    #[test]
    fn rescale_dp_shrinks_ga_for_small_batches() {
        let base = ExecutionPlan::zero_dp(2).with_ga(8); // 2*8 = 16
        let scaled = PlanSearch::rescale_dp(&base, 8, 16).unwrap();
        assert_eq!(scaled.parallel.dp, 8);
        assert!(scaled.parallel.dp * scaled.ga_steps <= 16);
    }

    #[test]
    fn fixed_search_only_matches_exact_gpus() {
        let plan = ExecutionPlan::dp(4);
        let search = PlanSearch::Fixed(plan);
        assert_eq!(search.candidate(4, 64), Some(plan));
        assert_eq!(search.candidate(8, 64), None);
    }

    #[test]
    fn full_curve_dominates_restricted_curves() {
        let model = ThroughputModel::new(
            ModelSpec::gpt2_xl(),
            PerfParams::default(),
            ClusterEnv::a800(),
            NodeShape::a800(),
        );
        let full = PlanSearch::Full.gpu_curve(&model, 16, 8);
        let dp = PlanSearch::DpScale(ExecutionPlan::dp(1)).gpu_curve(&model, 16, 8);
        for g in 1..=8 {
            assert!(
                full.value(g) >= dp.value(g) - 1e-9,
                "full search must dominate at {g} GPUs"
            );
        }
    }

    #[test]
    fn pack_prefers_best_fit_node() {
        let free = vec![Resources::new(8, 96, 1600.0), Resources::new(3, 36, 600.0)];
        let alloc = pack_gang(&free, Resources::new(2, 8, 50.0)).unwrap();
        assert_eq!(alloc.per_node, vec![(1, Resources::new(2, 8, 50.0))]);
    }

    #[test]
    fn pack_spreads_when_no_single_node_fits() {
        let free = vec![
            Resources::new(4, 48, 800.0),
            Resources::new(4, 48, 800.0),
            Resources::new(2, 24, 400.0),
        ];
        let alloc = pack_gang(&free, Resources::new(8, 32, 200.0)).unwrap();
        assert_eq!(alloc.gpus(), 8);
        assert_eq!(alloc.per_node.len(), 2);
    }

    #[test]
    fn pack_fails_when_insufficient() {
        let free = vec![Resources::new(2, 24, 400.0)];
        assert!(pack_gang(&free, Resources::new(4, 8, 10.0)).is_none());
    }

    #[test]
    fn pack_cpu_only_grant() {
        let free = vec![Resources::new(0, 8, 100.0), Resources::new(0, 32, 100.0)];
        let alloc = pack_gang(&free, Resources::new(0, 16, 10.0)).unwrap();
        assert_eq!(alloc.per_node, vec![(1, Resources::new(0, 16, 10.0))]);
    }
}
