//! Sia (SOSP'23): goodput-optimized GPU scaling along the DP dimension.
//!
//! Each round Sia recomputes the GPU count of every adaptive job by greedy
//! marginal-goodput water-filling, then rescales the job's data-parallel
//! degree to match. Limitations reproduced faithfully from the paper's
//! comparison (§7.3):
//!
//! * only the DP degree scales — TP/PP structures are frozen, and jobs
//!   whose plan cannot run as pure DP keep a fixed plan with scaling
//!   disabled (the footnote's fallback);
//! * multi-resource allocation beyond GPUs is ignored: CPUs and memory
//!   follow the GPU-proportional share;
//! * ZeRO/GA/GC behaviors are whatever the initial plan already had; Sia
//!   never switches strategies.

use crate::common::{job_baseline, same_arc, CacheEntry, JobCache, JobIndex, PlanSearch};
use crate::registry::ModelRegistry;
use crate::round::RoundContext;
use rubick_model::{Resources, SensitivityCurve, ThroughputModel};
use rubick_sim::cluster::Cluster;
use rubick_sim::job::{JobId, JobSpec, JobStatus};
use rubick_sim::scheduler::{Assignment, JobSnapshot, Scheduler};
use rubick_sim::tenant::Tenant;
use std::cmp::Ordering;
use std::ops::Deref;
use std::sync::Arc;

/// Churn guard: minimum relative goodput gain to change a running job's
/// GPU count (Sia restarts jobs to rescale, like Rubick's checkpoints).
const MIN_GAIN: f64 = 0.05;

/// The Sia baseline scheduler.
pub struct SiaScheduler {
    registry: Arc<ModelRegistry>,
    /// What each job resolves to in the registry, kept across rounds.
    cache: JobCache<SiaEntry>,
    /// The cached jobs' water-fill jumps in greedy order, kept across
    /// rounds, and the walk's buffers.
    fill: WaterFill,
    /// Rounds scheduled so far: the stamp of the entries a round resolves.
    round: u64,
}

/// What a round reads from the registry for one job: its curve under
/// Sia's restricted plan search, its goodput norm and its fitted model,
/// plus the water-fill jumps derived from the first two.
struct SiaEntry {
    curve: Option<Arc<SensitivityCurve>>,
    norm: f64,
    model: Option<Arc<ThroughputModel>>,
    /// The job's jumps from 0 GPUs along its curve's next rises.
    chain: Vec<Jump>,
    /// The round that resolved this entry.
    stamp: u64,
}

impl SiaEntry {
    /// `job`'s entry under `registry` on `total_gpus` schedulable GPUs,
    /// stamped `round`.
    fn resolve(registry: &ModelRegistry, job: &JobSnapshot, total_gpus: u32, round: u64) -> Self {
        let curve = registry.gpu_curve(
            &job.spec.model.name,
            &search_for(&job.spec),
            job.spec.global_batch,
            total_gpus,
        );
        let norm = job_baseline(registry, job).unwrap_or(1.0).max(1e-9);
        SiaEntry {
            chain: Jump::chain(curve.as_deref(), norm),
            curve,
            norm,
            model: registry.model(&job.spec.model.name),
            stamp: round,
        }
    }
}

impl CacheEntry for SiaEntry {
    const POLICY: &'static str = "Sia";

    /// Compares the chains bit for bit but not the stamps, which only say
    /// when each entry was resolved.
    fn same(&self, fresh: &Self) -> bool {
        let bits = |j: &Jump| (j.gpus, j.gain.to_bits());
        same_arc(&self.curve, &fresh.curve)
            && same_arc(&self.model, &fresh.model)
            && self.norm.to_bits() == fresh.norm.to_bits()
            && self.chain.iter().map(bits).eq(fresh.chain.iter().map(bits))
    }
}

impl SiaScheduler {
    /// Creates a Sia scheduler.
    pub fn new(registry: Arc<ModelRegistry>) -> Self {
        SiaScheduler {
            registry,
            cache: JobCache::default(),
            fill: WaterFill::default(),
            round: 0,
        }
    }
}

/// Sia's plan-search mode for a job: DP rescaling of its initial plan.
fn search_for(spec: &JobSpec) -> PlanSearch {
    if spec.initial_plan.parallel.is_model_parallel() {
        // Footnote fallback: fixed 3D plan, no scaling.
        PlanSearch::Fixed(spec.initial_plan)
    } else {
        PlanSearch::DpScale(spec.initial_plan)
    }
}

impl Scheduler for SiaScheduler {
    fn name(&self) -> &str {
        "sia"
    }

    fn schedule(
        &mut self,
        _now: f64,
        jobs: &[JobSnapshot],
        cluster: &Cluster,
        _tenants: &[Tenant],
    ) -> Vec<Assignment> {
        let shape = cluster.shape();
        let total_gpus = cluster.schedulable_capacity().gpus;

        // Per-job curves under Sia's restricted plan search, norms, models
        // and jumps, indexed by job position like every per-job vector
        // below.
        self.round += 1;
        let (registry, round) = (&self.registry, self.round);
        let entries = self.cache.refresh(registry, total_gpus, jobs, |job| {
            SiaEntry::resolve(registry, job, total_gpus, round)
        });
        self.fill.update(jobs, entries, round);
        let target = self.fill.walk(jobs.len(), total_gpus);

        // Keep running jobs whose target matches their current GPU count
        // (or whose change is not worth a restart).
        let mut ctx = RoundContext::new(cluster, jobs);
        let mut to_place: Vec<usize> = Vec::new();
        for (pos, job) in jobs.iter().enumerate() {
            let tgt = target[pos];
            match &job.status {
                JobStatus::Running { allocation, .. } => {
                    let cur = allocation.gpus();
                    let keep = if tgt == cur || tgt == 0 {
                        true
                    } else if let Some(curve) = &entries[pos].curve {
                        let gain = curve.value(tgt) / curve.value(cur).max(1e-12) - 1.0;
                        gain < MIN_GAIN
                    } else {
                        true
                    };
                    if keep {
                        ctx.keep(job);
                    } else {
                        to_place.push(pos);
                    }
                }
                JobStatus::Queued if tgt > 0 => to_place.push(pos),
                _ => {}
            }
        }

        // Place rescaled/new jobs with GPU-proportional CPU/memory.
        // Larger targets first (gang placement is harder for them).
        to_place.sort_by_key(|&pos| std::cmp::Reverse(target[pos]));
        for pos in to_place {
            let job = &jobs[pos];
            let entry = &entries[pos];
            let (Some(model), Some(curve)) = (&entry.model, &entry.curve) else {
                continue;
            };
            let search = search_for(&job.spec);
            // Round the target down to the nearest valid GPU count.
            let mut g = target[pos];
            let mut placed = false;
            while g >= 1 {
                if curve.points[g as usize].raw_throughput <= 0.0 {
                    g -= 1;
                    continue;
                }
                let frac = g as f64 / shape.gpus as f64;
                let want = Resources::new(
                    g,
                    (shape.cpus as f64 * frac).round() as u32,
                    shape.mem_gb * frac,
                );
                if let Some(alloc) = ctx.try_pack(want) {
                    if let Some((plan, _)) =
                        search.best_plan(model, job.spec.global_batch, &alloc.to_placement())
                    {
                        ctx.commit(Assignment {
                            job: job.id(),
                            allocation: alloc,
                            plan,
                        });
                        placed = true;
                        break;
                    }
                }
                g -= 1;
            }
            if !placed {
                // Could not improve: a running job keeps its old
                // configuration (uncharged — its resources were already
                // treated as reclaimable this round); a queued job stays
                // queued and retries with preserved progress next round.
                ctx.keep_uncharged(job);
            }
        }
        ctx.into_assignments()
    }
}

/// One useful jump of a job in the water-fill: the fewest extra GPUs that
/// raise its curve, and the normalized goodput gained per GPU.
#[derive(Debug, Clone, Copy)]
struct Jump {
    gpus: u32,
    gain: f64,
}

impl Jump {
    /// The jump from `cur` GPUs to the curve's
    /// [`next_rise`](SensitivityCurve::next_rise), or `None` when the curve
    /// is flat from `cur` on. Gains are positive and finite: curve values
    /// are finite and norms are floored at `1e-9`.
    fn next(curve: &SensitivityCurve, cur: u32, norm: f64) -> Option<Jump> {
        let next = curve.next_rise(cur)?;
        let gpus = next - cur;
        Some(Jump {
            gpus,
            gain: (curve.value(next) - curve.value(cur)) / gpus as f64 / norm,
        })
    }

    /// Every jump along `curve` from 0 GPUs; none without a curve.
    fn chain(curve: Option<&SensitivityCurve>, norm: f64) -> Vec<Jump> {
        let mut chain = Vec::new();
        if let Some(curve) = curve {
            let mut cur = 0;
            while let Some(jump) = Jump::next(curve, cur, norm) {
                cur += jump.gpus;
                chain.push(jump);
            }
        }
        chain
    }
}

/// One jump in the greedy order: its job, its size and its rank, the
/// lowest gain among it and the job's earlier jumps.
#[derive(Debug, Clone, Copy)]
struct Step {
    rank: f64,
    job: JobId,
    gpus: u32,
}

impl Step {
    /// The greedy order: higher rank first, then lower job id. The sort
    /// that applies it is stable, so one job's equal-rank steps keep their
    /// chain order.
    fn greedy(a: &Step, b: &Step) -> Ordering {
        b.rank.total_cmp(&a.rank).then(a.job.cmp(&b.job))
    }

    /// Appends `job`'s chain to `order` as steps.
    fn push_chain(order: &mut Vec<Step>, job: JobId, chain: &[Jump]) {
        let mut rank = f64::INFINITY;
        order.extend(chain.iter().map(|jump| {
            rank = rank.min(jump.gain);
            Step {
                rank,
                job,
                gpus: jump.gpus,
            }
        }));
    }
}

/// Greedy water-filling on marginal normalized goodput: repeatedly grant
/// the job with the best per-GPU gain its next useful jump, ties going to
/// the lower job id, and drop a job for good when its next jump is larger
/// than the GPUs left, until the GPUs run out or no jump is left.
///
/// The grants come in one order, whatever the GPU total, so it is kept
/// across rounds. Rank each jump by the lowest gain among it and its job's
/// earlier jumps, and sort every job's jumps by rank (descending), then
/// job id: the greedy grants them in that order. A jump whose gain is at
/// least its predecessor's is granted right after it, since when the
/// predecessor won no other job's next jump was higher, and such a jump
/// keeps its predecessor's rank; a jump with a lower gain opens a new rank
/// equal to its gain and competes on it. So a round is one walk over the
/// order, granting each jump that fits the GPUs left and skipping the rest
/// of a job's jumps after its first that does not.
///
/// Each job's chain of jumps lives in its cached [`SiaEntry`], stamped with
/// the round that resolved it. A round drops the steps of departed jobs
/// and of entries resolved this round, and merges the new entries' steps
/// in, so a cache clear after a refit or a node loss rebuilds the whole
/// order. A round costs O(jobs) to index the jobs and find the new and
/// departed ones, O(steps) for the walk and, when a job came, went or was
/// re-resolved, O(steps) more for the update.
#[derive(Default)]
struct WaterFill {
    /// Every cached job's steps in greedy order.
    order: Vec<Step>,
    /// This round's new steps, sorted before they merge into `order`.
    fresh: Vec<Step>,
    /// The merge's output buffer, swapped with `order`; empty between
    /// rounds.
    spare: Vec<Step>,
    /// The round's job id → slice position map.
    index: JobIndex,
    /// Each job's GPU target, by slice position.
    target: Vec<u32>,
    /// Whether the walk dropped the job at that slice position.
    dropped: Vec<bool>,
}

impl WaterFill {
    /// Brings the order in line with `entries`, where `entries[pos]` is
    /// `jobs[pos]`'s and this round's entries are stamped `round`. Debug
    /// builds rebuild the order from every entry's chain and assert it
    /// equals the kept one.
    fn update<E: Deref<Target = SiaEntry>>(
        &mut self,
        jobs: &[JobSnapshot],
        entries: &[E],
        round: u64,
    ) {
        self.index.rebuild(jobs);
        // Collect this round's chains and count the steps of the entries
        // kept from last round. The order holds last round's chains, which
        // include every kept entry's, so equal counts mean nothing left.
        self.fresh.clear();
        let mut kept = 0;
        for (job, e) in jobs.iter().zip(entries) {
            if e.stamp == round {
                Step::push_chain(&mut self.fresh, job.id(), &e.chain);
            } else {
                kept += e.chain.len();
            }
        }
        if self.order.len() != kept {
            let index = &self.index;
            self.order.retain(|s| {
                index
                    .get(s.job)
                    .is_some_and(|pos| entries[pos].stamp != round)
            });
        }
        // Merge the new steps in: a few on most rounds, so the order is
        // copied into the spare buffer rather than sorted again.
        if !self.fresh.is_empty() {
            self.fresh.sort_by(Step::greedy);
            let mut old = self.order.drain(..).peekable();
            for &step in &self.fresh {
                while let Some(s) = old.next_if(|s| Step::greedy(s, &step).is_lt()) {
                    self.spare.push(s);
                }
                self.spare.push(step);
            }
            self.spare.extend(old);
            std::mem::swap(&mut self.order, &mut self.spare);
        }
        if cfg!(debug_assertions) {
            let mut rebuilt = Vec::with_capacity(self.order.len());
            for (job, e) in jobs.iter().zip(entries) {
                Step::push_chain(&mut rebuilt, job.id(), &e.chain);
            }
            rebuilt.sort_by(Step::greedy);
            let bits = |s: &Step| (s.rank.to_bits(), s.job, s.gpus);
            assert!(
                self.order.iter().map(bits).eq(rebuilt.iter().map(bits)),
                "stale Sia water-fill order"
            );
        }
    }

    /// Walks the order over `total_gpus` GPUs and returns each of the
    /// round's `n` jobs' GPU target by slice position (0 for a job without
    /// a curve).
    fn walk(&mut self, n: usize, total_gpus: u32) -> &[u32] {
        self.target.clear();
        self.target.resize(n, 0);
        self.dropped.clear();
        self.dropped.resize(n, false);
        let mut left = total_gpus;
        for step in &self.order {
            if left == 0 {
                break;
            }
            let pos = self.index.pos(step.job);
            if self.dropped[pos] {
                continue;
            }
            if step.gpus > left {
                self.dropped[pos] = true;
            } else {
                self.target[pos] += step.gpus;
                left -= step.gpus;
            }
        }
        &self.target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rubick_model::{ExecutionPlan, ModelSpec, NodeShape, PerfParams};
    use rubick_sim::engine::{Engine, EngineConfig};
    use rubick_sim::job::{JobClass, JobSpec};
    use rubick_sim::tenant::TenantId;
    use rubick_testbed::TestbedOracle;

    #[test]
    fn sia_scales_dp_jobs_up_when_cluster_is_idle() {
        let oracle = TestbedOracle::new(4);
        let registry =
            Arc::new(ModelRegistry::from_oracle(&oracle, &[ModelSpec::roberta_large()]).unwrap());
        let job = JobSpec {
            id: 1,
            model: ModelSpec::roberta_large(),
            global_batch: 64,
            submit_time: 0.0,
            target_batches: 2000,
            requested: Resources::new(2, 8, 50.0),
            initial_plan: ExecutionPlan::dp(2),
            class: JobClass::Guaranteed,
            tenant: TenantId::default(),
        };
        let mut engine = Engine::new(
            &oracle,
            Box::new(SiaScheduler::new(registry)),
            Cluster::new(1, NodeShape::a800()),
            vec![],
            EngineConfig::default(),
        );
        let report = engine.run(vec![job]);
        assert_eq!(report.jobs.len(), 1);
        // Scaling beyond the requested 2 GPUs should beat the 2-GPU baseline.
        let r = &report.jobs[0];
        assert!(
            r.avg_throughput > r.baseline_throughput.unwrap() * 1.2,
            "sia should scale up: {} vs baseline {}",
            r.avg_throughput,
            r.baseline_throughput.unwrap()
        );
    }

    #[test]
    fn sia_leaves_model_parallel_jobs_fixed() {
        let oracle = TestbedOracle::new(4);
        let registry =
            Arc::new(ModelRegistry::from_oracle(&oracle, &[ModelSpec::llama2_7b()]).unwrap());
        let plan = ExecutionPlan::three_d(1, 8, 1, 1);
        let job = JobSpec {
            id: 1,
            model: ModelSpec::llama2_7b(),
            global_batch: 32,
            submit_time: 0.0,
            target_batches: 200,
            requested: Resources::new(8, 32, 200.0),
            initial_plan: plan,
            class: JobClass::Guaranteed,
            tenant: TenantId::default(),
        };
        let mut engine = Engine::new(
            &oracle,
            Box::new(SiaScheduler::new(registry)),
            Cluster::new(2, NodeShape::a800()),
            vec![],
            EngineConfig::default(),
        );
        let report = engine.run(vec![job]);
        assert_eq!(report.jobs.len(), 1);
        // Fixed plan: never reconfigured, exactly the initial 8 GPUs used.
        assert_eq!(report.jobs[0].reconfig_count, 0);
    }

    fn spec(id: u64, model: ModelSpec, plan: ExecutionPlan, batch: u32) -> Arc<JobSpec> {
        let gpus = plan.gpus();
        Arc::new(JobSpec {
            id,
            model,
            global_batch: batch,
            submit_time: 0.0,
            target_batches: 1000,
            requested: Resources::new(gpus, 4 * gpus, 25.0 * gpus as f64),
            initial_plan: plan,
            class: JobClass::Guaranteed,
            tenant: TenantId::default(),
        })
    }

    /// This round's snapshots of `specs`: a job the previous round assigned
    /// runs on that grant, every other job is queued.
    fn snapshots(specs: &[(Arc<JobSpec>, Option<f64>)], prev: &[Assignment]) -> Vec<JobSnapshot> {
        specs
            .iter()
            .map(|(spec, baseline)| JobSnapshot {
                spec: Arc::clone(spec),
                status: match prev.iter().find(|a| a.job == spec.id) {
                    Some(a) => JobStatus::Running {
                        allocation: a.allocation.clone(),
                        plan: a.plan,
                        throughput: 1.0,
                        resume_at: 0.0,
                    },
                    None => JobStatus::Queued,
                },
                remaining_batches: 1000.0,
                queued_since: 0.0,
                runtime: 0.0,
                reconfig_count: 0,
                baseline_throughput: *baseline,
            })
            .collect()
    }

    /// A scheduler's cached per-job inputs: curve contents, norm bits and
    /// each jump's size and gain bits.
    type Inputs = (Option<SensitivityCurve>, u64, Vec<(u32, u64)>);

    fn cached(sia: &SiaScheduler) -> Vec<Inputs> {
        sia.cache
            .entries
            .iter()
            .map(|e| {
                let chain = e.chain.iter().map(|j| (j.gpus, j.gain.to_bits())).collect();
                (e.curve.as_deref().cloned(), e.norm.to_bits(), chain)
            })
            .collect()
    }

    /// A scheduler's kept greedy order, bit for bit.
    fn order(sia: &SiaScheduler) -> Vec<(u64, JobId, u32)> {
        let bits = |s: &Step| (s.rank.to_bits(), s.job, s.gpus);
        sia.fill.order.iter().map(bits).collect()
    }

    /// One scheduler kept across rounds decides every round exactly like a
    /// fresh one, and holds the same per-job inputs, through everything
    /// that can invalidate its cache: a refit (registry version bump), a
    /// node failure and recovery (schedulable GPUs), a departed job, an id
    /// re-submitted with a new spec in the same round, and a new baseline.
    #[test]
    fn warm_scheduler_matches_a_fresh_one_every_round() {
        let oracle = TestbedOracle::new(4);
        let registry = Arc::new(
            ModelRegistry::from_oracle(
                &oracle,
                &[ModelSpec::roberta_large(), ModelSpec::gpt2_xl()],
            )
            .unwrap(),
        );
        let mut warm = SiaScheduler::new(Arc::clone(&registry));
        let mut cluster = Cluster::new(2, NodeShape::a800());
        let mut specs = vec![
            (
                spec(1, ModelSpec::roberta_large(), ExecutionPlan::dp(2), 64),
                None,
            ),
            (
                spec(2, ModelSpec::gpt2_xl(), ExecutionPlan::dp(4), 16),
                None,
            ),
            (
                spec(3, ModelSpec::roberta_large(), ExecutionPlan::dp(1), 32),
                None,
            ),
        ];
        let mut prev = Vec::new();
        for round in 0..9 {
            match round {
                2 => registry.insert(ThroughputModel::new(
                    ModelSpec::roberta_large(),
                    PerfParams::default(),
                    *oracle.env(),
                    *oracle.shape(),
                )),
                3 => {
                    cluster.set_node_up(1, false);
                    prev.clear();
                }
                4 => {
                    specs.pop();
                }
                5 => {
                    let plan = ExecutionPlan::three_d(1, 2, 2, 1);
                    specs[1].0 = spec(2, ModelSpec::gpt2_xl(), plan, 16);
                }
                6 => cluster.set_node_up(1, true),
                7 => specs[0].1 = Some(50.0),
                _ => {}
            }
            let jobs = snapshots(&specs, &prev);
            let got = warm.schedule(0.0, &jobs, &cluster, &[]);
            let mut fresh = SiaScheduler::new(Arc::clone(&registry));
            assert_eq!(
                got,
                fresh.schedule(0.0, &jobs, &cluster, &[]),
                "round {round}"
            );
            assert_eq!(cached(&warm), cached(&fresh), "round {round}");
            assert_eq!(order(&warm), order(&fresh), "round {round}");
            prev = got;
        }
    }

    /// The water-fill as a full rescan of every job per grant, kept as the
    /// reference the walk over the kept order must match: each step takes
    /// the job with the strictly best per-GPU gain over its next useful
    /// jump within the GPUs left, ties going to the lower job id. Takes
    /// each job's id, curve and norm by position.
    fn water_fill_reference(
        jobs: &[(JobId, Option<&SensitivityCurve>, f64)],
        total_gpus: u32,
    ) -> Vec<u32> {
        let mut target = vec![0u32; jobs.len()];
        let mut left = total_gpus;
        while left > 0 {
            // (job position, jump size, per-GPU gain)
            let mut best: Option<(usize, u32, f64)> = None;
            for (pos, &(id, curve, norm)) in jobs.iter().enumerate() {
                let Some(curve) = curve else { continue };
                let cur = target[pos];
                let here = curve.value(cur);
                let Some(next) = (cur + 1..=cur + left).find(|&g| curve.value(g) > here + 1e-12)
                else {
                    continue;
                };
                let jump = next - cur;
                let gain = (curve.value(next) - here) / jump as f64 / norm;
                let wins = best.is_none_or(|(b, _, best_gain)| {
                    gain > best_gain || (gain == best_gain && id < jobs[b].0)
                });
                if wins {
                    best = Some((pos, jump, gain));
                }
            }
            let Some((winner, jump, _)) = best else { break };
            target[winner] += jump;
            left -= jump;
        }
        target
    }

    /// A curve over `0..=raw.len()` GPUs from raw per-amount throughputs,
    /// 0 meaning no feasible plan at that amount (a flat stretch of the
    /// envelope).
    fn curve_from(raw: &[u32]) -> SensitivityCurve {
        SensitivityCurve::from_fn(raw.len() as u32, |g| {
            let t = raw[g as usize - 1];
            (t > 0).then(|| (ExecutionPlan::dp(g), t as f64))
        })
    }

    /// One job's curve for a round of `total` GPUs. Each draw below 6 (6
    /// of 14) makes its amount infeasible, so the envelope has plateaus and
    /// multi-GPU jumps, some smaller than an earlier one. The shapes are:
    /// rising (raw `g` plus a small offset, so gains stay near 1, tie often
    /// across jobs and can rise after a plateau), saturating (raw 1–8, flat
    /// after an early peak), fixed-8 (throughput only at exactly 8 GPUs),
    /// all-flat, or no curve at all.
    fn curve_of(total: u32, shape: u32, draws: &[u32]) -> Option<Arc<SensitivityCurve>> {
        let draw = |g: u32| draws[g as usize - 1];
        let rising = |g: u32| if draw(g) < 6 { 0 } else { g + draw(g) - 6 };
        let raw: Vec<u32> = match shape {
            0 => (1..=total).map(rising).collect(),
            1 => (1..=total).map(|g| draw(g).saturating_sub(5)).collect(),
            2 => (1..=total)
                .map(|g| if g == 8 { 8 + draw(1) } else { 0 })
                .collect(),
            3 => vec![0; total as usize],
            _ => return None,
        };
        Some(Arc::new(curve_from(&raw)))
    }

    /// One job of a synthetic round: its id, whether it keeps last round's
    /// entry when it has one, its curve shape and draws, and its norm
    /// (including the `1e-9` floor of a zero baseline).
    type SynthJob = (u64, bool, u32, Vec<u32>, f64);

    /// A synthetic round: which GPU total it runs on, and its jobs.
    type SynthRound = (u32, Vec<SynthJob>);

    /// Per case a main and an alternate GPU total (1 to 64); then up to 10
    /// rounds, each on the main total unless its draw picks the alternate
    /// (a node loss or recovery), of up to 11 jobs with ids below 12.
    fn any_synthetic_rounds() -> impl Strategy<Value = ((u32, u32), Vec<SynthRound>)> {
        let job = (
            0u64..12,
            prop::bool::ANY,
            0u32..5,
            prop::collection::vec(0u32..14, 64..65),
            prop::sample::select(vec![1.0, 2.0, 0.5, 1e-9]),
        );
        (
            (1u32..65, 1u32..65),
            prop::collection::vec((0u32..4, prop::collection::vec(job, 0..12)), 1..11),
        )
    }

    /// The job a round can submit: its model, initial plan and global
    /// batch. DP plans rescale (with multi-GPU plateaus where the batch
    /// does not split); the TP2+PP2 plan runs at exactly 4 GPUs; the
    /// 32-GPU plan fits no cluster here, so its curve is flat; LLaMA-2 is
    /// not in the registry, so it has no curve. Arrivals repeat configs,
    /// which makes exact gain ties between jobs.
    fn config(i: usize) -> (ModelSpec, ExecutionPlan, u32) {
        match i % 6 {
            0 => (ModelSpec::roberta_large(), ExecutionPlan::dp(2), 64),
            1 => (ModelSpec::roberta_large(), ExecutionPlan::dp(1), 24),
            2 => (ModelSpec::gpt2_xl(), ExecutionPlan::dp(4), 16),
            3 => (ModelSpec::gpt2_xl(), ExecutionPlan::three_d(1, 2, 2, 1), 16),
            4 => (ModelSpec::gpt2_xl(), ExecutionPlan::three_d(1, 4, 8, 8), 16),
            _ => (ModelSpec::llama2_7b(), ExecutionPlan::dp(1), 32),
        }
    }

    /// Baselines a job can carry: none (the model's own prediction), zero
    /// (the `1e-9` norm floor), and two measured ones.
    const BASELINES: [Option<f64>; 4] = [None, Some(0.0), Some(40.0), Some(400.0)];

    /// One change before a round, as `(kind, a, b)`: an arrival of config
    /// `a`, a departure, an id re-submitted with config `b`, a new
    /// baseline, a refit of one model, a node failure, a recovery, or a
    /// slice shuffled by `a` and `b` (the engine's slice is id-sorted).
    type Change = (u32, usize, usize);

    /// Up to 12 rounds of up to 3 changes each, after 3 to 6 arrivals.
    fn any_rounds() -> impl Strategy<Value = (Vec<usize>, Vec<Vec<Change>>)> {
        let change = (0u32..8, 0usize..16, 0usize..16);
        (
            prop::collection::vec(0usize..6, 3..7),
            prop::collection::vec(prop::collection::vec(change, 0..4), 1..13),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On synthetic curves with plateaus, fixed amounts, flat stretches
        /// and exact ties, kept across rounds that keep, replace, add and
        /// drop jobs in any slice order and clear everything when the GPU
        /// total moves, the walk over the kept order grants every round
        /// exactly the targets of the full rescan.
        #[test]
        fn kept_order_water_fill_matches_rescan_on_synthetic_curves(
            rounds in any_synthetic_rounds()
        ) {
            let ((main, alt), rounds) = rounds;
            let mut fill = WaterFill::default();
            let mut last: Vec<(JobId, SiaEntry)> = Vec::new();
            let mut last_total = None;
            for (round, (pick, round_jobs)) in rounds.into_iter().enumerate() {
                let (round, total) = (round as u64 + 1, if pick == 3 { alt } else { main });
                if last_total.replace(total) != Some(total) {
                    last.clear();
                }
                let mut specs = Vec::new();
                let mut entries = Vec::new();
                for (id, keep, shape, draws, norm) in round_jobs {
                    if specs.iter().any(|(s, _): &(Arc<JobSpec>, _)| s.id == id) {
                        continue;
                    }
                    let old = last.iter().position(|(old, _)| *old == id);
                    let entry = match old {
                        Some(at) if keep => last.swap_remove(at).1,
                        _ => {
                            let curve = curve_of(total, shape, &draws);
                            SiaEntry {
                                chain: Jump::chain(curve.as_deref(), norm),
                                curve,
                                norm,
                                model: None,
                                stamp: round,
                            }
                        }
                    };
                    specs.push((spec(id, ModelSpec::roberta_large(), ExecutionPlan::dp(1), 8), None));
                    entries.push(entry);
                }
                let jobs = snapshots(&specs, &[]);
                let refs: Vec<&SiaEntry> = entries.iter().collect();
                fill.update(&jobs, &refs, round);
                let fill_jobs: Vec<_> = jobs
                    .iter()
                    .zip(&entries)
                    .map(|(job, e)| (job.id(), e.curve.as_deref(), e.norm))
                    .collect();
                prop_assert_eq!(
                    fill.walk(jobs.len(), total).to_vec(),
                    water_fill_reference(&fill_jobs, total),
                    "round {}", round
                );
                last = jobs.iter().map(|job| job.id()).zip(entries).collect();
            }
        }

        /// Through arrivals, departures, re-submitted ids, new baselines,
        /// refits, node failures and recoveries and shuffled slices, the
        /// walk over the kept order grants every round exactly the targets
        /// of the full rescan, and the warm scheduler decides like a fresh
        /// one and holds the same inputs and order.
        #[test]
        fn kept_order_water_fill_matches_rescan_over_rounds(rounds in any_rounds()) {
            let (initial, rounds) = rounds;
            let oracle = TestbedOracle::new(4);
            let zoo = [ModelSpec::roberta_large(), ModelSpec::gpt2_xl()];
            let registry = Arc::new(ModelRegistry::from_oracle(&oracle, &zoo).unwrap());
            let mut warm = SiaScheduler::new(Arc::clone(&registry));
            let mut cluster = Cluster::new(3, NodeShape::a800());
            let mut next_id = 0u64;
            let mut arrive = |specs: &mut Vec<(Arc<JobSpec>, Option<f64>)>, c: usize| {
                let (model, plan, batch) = config(c);
                specs.push((spec(next_id, model, plan, batch), None));
                next_id += 1;
            };
            let mut specs = Vec::new();
            for c in initial {
                arrive(&mut specs, c);
            }
            let mut prev: Vec<Assignment> = Vec::new();
            for (round, changes) in rounds.into_iter().enumerate() {
                let mut shuffle = None;
                for (kind, a, b) in changes {
                    let at = a % specs.len().max(1);
                    match kind {
                        0 => arrive(&mut specs, a),
                        1 if !specs.is_empty() => {
                            specs.remove(at);
                        }
                        2 if !specs.is_empty() => {
                            let (model, plan, batch) = config(b);
                            specs[at].0 = spec(specs[at].0.id, model, plan, batch);
                        }
                        3 if !specs.is_empty() => specs[at].1 = BASELINES[b % 4],
                        4 => {
                            let params = if b % 2 == 0 {
                                PerfParams::default()
                            } else {
                                PerfParams { k_const: 0.05, ..PerfParams::default() }
                            };
                            let model = zoo[a % 2].clone();
                            registry.insert(ThroughputModel::new(
                                model,
                                params,
                                *oracle.env(),
                                *oracle.shape(),
                            ));
                        }
                        5 => {
                            let node = a % 3;
                            cluster.set_node_up(node, false);
                            prev.retain(|g| g.allocation.per_node.iter().all(|&(n, _)| n != node));
                        }
                        6 => cluster.set_node_up(a % 3, true),
                        7 => shuffle = Some((a, b)),
                        _ => {}
                    }
                }
                let mut jobs = snapshots(&specs, &prev);
                if let Some((a, b)) = shuffle {
                    let by = a % jobs.len().max(1);
                    jobs.rotate_left(by);
                    if b % 2 == 1 {
                        jobs.reverse();
                    }
                }
                let total = cluster.schedulable_capacity().gpus;
                let got = warm.schedule(0.0, &jobs, &cluster, &[]);
                let fill: Vec<_> = jobs
                    .iter()
                    .zip(&warm.cache.entries)
                    .map(|(job, e)| (job.id(), e.curve.as_deref(), e.norm))
                    .collect();
                prop_assert_eq!(
                    warm.fill.target.clone(),
                    water_fill_reference(&fill, total),
                    "round {}", round
                );
                let mut fresh = SiaScheduler::new(Arc::clone(&registry));
                prop_assert_eq!(&got, &fresh.schedule(0.0, &jobs, &cluster, &[]), "round {}", round);
                prop_assert_eq!(cached(&warm), cached(&fresh), "round {}", round);
                prop_assert_eq!(order(&warm), order(&fresh), "round {}", round);
                prev = got;
            }
        }
    }
}
