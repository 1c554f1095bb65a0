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

use crate::common::{job_baseline, same_arc, CacheEntry, JobCache, PlanSearch};
use crate::registry::ModelRegistry;
use crate::round::RoundContext;
use rubick_model::{Resources, SensitivityCurve, ThroughputModel};
use rubick_sim::cluster::Cluster;
use rubick_sim::job::{JobSpec, JobStatus};
use rubick_sim::scheduler::{Assignment, JobSnapshot, Scheduler};
use rubick_sim::tenant::Tenant;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Churn guard: minimum relative goodput gain to change a running job's
/// GPU count (Sia restarts jobs to rescale, like Rubick's checkpoints).
const MIN_GAIN: f64 = 0.05;

/// The Sia baseline scheduler.
pub struct SiaScheduler {
    registry: Arc<ModelRegistry>,
    /// What each job resolves to in the registry, kept across rounds.
    cache: JobCache<SiaEntry>,
}

/// What a round reads from the registry for one job: its curve under
/// Sia's restricted plan search, its goodput norm and its fitted model.
struct SiaEntry {
    curve: Option<Arc<SensitivityCurve>>,
    norm: f64,
    model: Option<Arc<ThroughputModel>>,
}

impl CacheEntry for SiaEntry {
    const POLICY: &'static str = "Sia";

    fn same(&self, fresh: &Self) -> bool {
        same_arc(&self.curve, &fresh.curve)
            && same_arc(&self.model, &fresh.model)
            && self.norm.to_bits() == fresh.norm.to_bits()
    }
}

impl SiaScheduler {
    /// Creates a Sia scheduler.
    pub fn new(registry: Arc<ModelRegistry>) -> Self {
        SiaScheduler {
            registry,
            cache: JobCache::default(),
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

        // Per-job curves under Sia's restricted plan search, norms and
        // models, indexed by job position like every per-job vector below.
        let registry = &self.registry;
        let entries = self
            .cache
            .refresh(registry, total_gpus, jobs, |job| SiaEntry {
                curve: registry.gpu_curve(
                    &job.spec.model.name,
                    &search_for(&job.spec),
                    job.spec.global_batch,
                    total_gpus,
                ),
                norm: job_baseline(registry, job).unwrap_or(1.0).max(1e-9),
                model: registry.model(&job.spec.model.name),
            });
        let fill: Vec<_> = entries
            .iter()
            .map(|e| (e.curve.as_deref(), e.norm))
            .collect();
        let target = water_fill(&fill, total_gpus);

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

/// One job's next useful jump in the water-fill: the fewest extra GPUs
/// that raise its curve, and the normalized goodput gained per GPU.
///
/// Ordered for a max-heap by gain, then by *lower* job position, so the
/// heap pops exactly the job a first-wins `gain > best` scan over the jobs
/// in order would pick. Gains are positive and finite (curve values are
/// finite, norms are floored at `1e-9`), so `total_cmp` is the numeric
/// order.
#[derive(Debug, Clone, Copy)]
struct Jump {
    gain: f64,
    pos: usize,
    gpus: u32,
}

impl Jump {
    /// The next jump of job `pos` from `cur` GPUs, to the curve's
    /// [`next_rise`](SensitivityCurve::next_rise), or `None` when the curve
    /// is flat from `cur` on.
    fn next(curve: &SensitivityCurve, cur: u32, norm: f64, pos: usize) -> Option<Jump> {
        let next = curve.next_rise(cur)?;
        let gpus = next - cur;
        Some(Jump {
            gain: (curve.value(next) - curve.value(cur)) / gpus as f64 / norm,
            pos,
            gpus,
        })
    }
}

impl PartialEq for Jump {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Jump {}

impl PartialOrd for Jump {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Jump {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.pos.cmp(&self.pos))
    }
}

/// Greedy water-filling on marginal normalized goodput: repeatedly grant
/// the job with the best per-GPU gain its next useful jump, until the
/// `total_gpus` run out or no jump fits. Takes each job's curve and norm by
/// position and returns each job's GPU target by position (0 for a job
/// without a curve).
///
/// A lazy max-heap holds one pending [`Jump`] per job. A job's jump only
/// changes when that job is granted, so each grant pops one entry and
/// pushes at most one; a popped jump larger than the GPUs left is dropped
/// for good, because the GPUs left only shrink and that job's target is
/// frozen. Each jump is an O(1) read of the curve's `next_rise`, so a round
/// costs O((jobs + grants) · log jobs).
fn water_fill(jobs: &[(Option<&SensitivityCurve>, f64)], total_gpus: u32) -> Vec<u32> {
    let mut target = vec![0u32; jobs.len()];
    let mut heap: BinaryHeap<Jump> = jobs
        .iter()
        .enumerate()
        .filter_map(|(pos, &(curve, norm))| Jump::next(curve?, 0, norm, pos))
        .collect();
    let mut left = total_gpus;
    while left > 0 {
        let Some(jump) = heap.pop() else { break };
        if jump.gpus > left {
            continue;
        }
        target[jump.pos] += jump.gpus;
        left -= jump.gpus;
        let (curve, norm) = jobs[jump.pos];
        let curve = curve.expect("only jobs with a curve get a jump");
        if let Some(next) = Jump::next(curve, target[jump.pos], norm, jump.pos) {
            heap.push(next);
        }
    }
    target
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

    /// A scheduler's cached per-job inputs: curve contents and norm bits.
    fn cached(sia: &SiaScheduler) -> Vec<(Option<SensitivityCurve>, u64)> {
        sia.cache
            .entries
            .iter()
            .map(|e| (e.curve.as_deref().cloned(), e.norm.to_bits()))
            .collect()
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
            prev = got;
        }
    }

    /// The water-fill as a full rescan of every job per grant, kept as the
    /// reference [`water_fill`] must match: each step takes the first job
    /// in position order with the strictly best per-GPU gain over its next
    /// useful jump within the GPUs left.
    fn water_fill_reference(
        curves: &[Option<Arc<SensitivityCurve>>],
        norms: &[f64],
        total_gpus: u32,
    ) -> Vec<u32> {
        let mut target = vec![0u32; curves.len()];
        let mut left = total_gpus;
        while left > 0 {
            // (job position, jump size, per-GPU gain)
            let mut best: Option<(usize, u32, f64)> = None;
            for (pos, curve) in curves.iter().enumerate() {
                let Some(curve) = curve else { continue };
                let cur = target[pos];
                let here = curve.value(cur);
                let Some(next) = (cur + 1..=cur + left).find(|&g| curve.value(g) > here + 1e-12)
                else {
                    continue;
                };
                let jump = next - cur;
                let gain = (curve.value(next) - here) / jump as f64 / norms[pos];
                if best.as_ref().map(|(_, _, b)| gain > *b).unwrap_or(true) {
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

    /// One job's curve and norm for a round of `total` GPUs. Each draw
    /// below 6 (6 of 14) makes its amount infeasible, so the envelope has
    /// plateaus and multi-GPU jumps. The shapes are: rising (raw `g` plus
    /// a small offset, so gains stay near 1 and tie often across jobs),
    /// saturating (raw 1–8, flat after an early peak), fixed-8 (throughput
    /// only at exactly 8 GPUs), all-flat, or no curve at all. Norms
    /// include the `1e-9` floor of a zero baseline.
    fn job_from(
        total: u32,
        (shape, draws, norm): (u32, Vec<u32>, f64),
    ) -> (Option<Arc<SensitivityCurve>>, f64) {
        let draw = |g: u32| draws[g as usize - 1];
        let rising = |g: u32| if draw(g) < 6 { 0 } else { g + draw(g) - 6 };
        let raw: Vec<u32> = match shape {
            0 => (1..=total).map(rising).collect(),
            1 => (1..=total).map(|g| draw(g).saturating_sub(5)).collect(),
            2 => (1..=total)
                .map(|g| if g == 8 { 8 + draw(1) } else { 0 })
                .collect(),
            3 => vec![0; total as usize],
            _ => return (None, norm),
        };
        (Some(Arc::new(curve_from(&raw))), norm)
    }

    type Round = (u32, Vec<(Option<Arc<SensitivityCurve>>, f64)>);

    /// Rounds of 1 to 64 GPUs and up to 11 jobs.
    fn any_round() -> impl Strategy<Value = Round> {
        let job = (
            0u32..5,
            prop::collection::vec(0u32..14, 64..65),
            prop::sample::select(vec![1.0, 2.0, 0.5, 1e-9]),
        );
        (1u32..65, prop::collection::vec(job, 0..12)).prop_map(|(total, jobs)| {
            let jobs = jobs.into_iter().map(|j| job_from(total, j)).collect();
            (total, jobs)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The lazy-heap water-fill grants exactly the per-job targets of
        /// the full rescan, including its first-wins tie order and its
        /// skipping of jumps larger than the GPUs left.
        #[test]
        fn heap_water_fill_matches_full_scan(round in any_round()) {
            let (total, jobs) = round;
            let (curves, norms): (Vec<_>, Vec<_>) = jobs.into_iter().unzip();
            let fill: Vec<_> = curves.iter().map(|c| c.as_deref()).zip(norms.iter().copied()).collect();
            prop_assert_eq!(
                water_fill(&fill, total),
                water_fill_reference(&curves, &norms, total)
            );
        }
    }
}
