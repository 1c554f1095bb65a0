//! Philly-like synthetic trace generation.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rubick_model::{enumerate_plans, ExecutionPlan, ModelSpec, Placement, PlanKind, Resources};
use rubick_sim::job::{JobClass, JobSpec};
use rubick_sim::tenant::TenantId;
use rubick_testbed::TestbedOracle;
use std::collections::HashMap;

/// Configuration of the synthetic trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// RNG seed (traces are fully deterministic).
    pub seed: u64,
    /// Number of jobs at load 1.0 (the paper's down-sample: 406).
    pub base_jobs: usize,
    /// Trace span, hours (the paper: busiest 12 h).
    pub duration_hours: f64,
    /// Load multiplier (Fig. 10 sweeps this): scales the job count and the
    /// offered GPU-hours together.
    pub load_factor: f64,
    /// Offered load as a fraction of cluster GPU-hours at load 1.0.
    pub offered_utilization: f64,
    /// Cluster GPU capacity the trace targets (bounds request sizes).
    pub cluster_gpus: u32,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            seed: 0xB1C4,
            base_jobs: 406,
            duration_hours: 12.0,
            load_factor: 1.0,
            // The paper's down-sampled trace is overloaded relative to the
            // 12 h window (Synergy's makespan reaches 21.5 h; P99 JCTs of
            // 13.5 h imply hours of queueing), so the default offered load
            // exceeds the window's GPU-hour capacity.
            offered_utilization: 1.25,
            cluster_gpus: 64,
        }
    }
}

impl TraceConfig {
    /// Number of jobs after applying the load factor.
    pub fn num_jobs(&self) -> usize {
        ((self.base_jobs as f64) * self.load_factor)
            .round()
            .max(1.0) as usize
    }
}

/// Philly-like GPU request distribution (power-of-two heavy at the small
/// end, a thin tail of large jobs).
fn sample_gpus(rng: &mut SmallRng, max: u32) -> u32 {
    let r: f64 = rng.random();
    let g = match r {
        x if x < 0.42 => 1,
        x if x < 0.58 => 2,
        x if x < 0.74 => 4,
        x if x < 0.89 => 8,
        x if x < 0.95 => 16,
        x if x < 0.98 => 32,
        _ => 64,
    };
    g.min(max)
}

/// Realistic lower bound on a user's GPU request for a model: nobody
/// gang-schedules a 7B/30B model on a couple of GPUs by choice, and these
/// large requests are exactly what makes reconfigurability valuable
/// (Fig. 11: large jobs can *start early* on fewer GPUs under Rubick).
pub fn request_floor(model: &ModelSpec) -> u32 {
    if model.params >= 2.0e10 {
        16
    } else if model.params >= 5.0e9 {
        8
    } else {
        1
    }
}

/// Heavy-tailed (lognormal-ish) raw duration in seconds; rescaled later so
/// the trace's offered GPU-hours hit the configured utilization.
fn sample_duration(rng: &mut SmallRng) -> f64 {
    // Box–Muller normal from two uniforms.
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    // ln N(mu, sigma): median ~18 min, long tail.
    (18.0 * 60.0) * (0.9 * z).exp()
}

/// Bursty arrival times: a sinusoidal-intensity process over the span
/// ("the busiest 12 hours" have pronounced peaks).
fn sample_arrival(rng: &mut SmallRng, span_secs: f64) -> f64 {
    // Rejection-sample against intensity 1 + 0.8*sin(2πt/T·2) ≥ 0.2.
    loop {
        let t: f64 = rng.random::<f64>() * span_secs;
        let intensity = 1.0 + 0.8 * (4.0 * std::f64::consts::PI * t / span_secs).sin();
        if rng.random::<f64>() * 1.8 <= intensity {
            return t;
        }
    }
}

/// Default model mix (by job count). Small encoder models dominate real
/// clusters; large LLaMA models are the growing tail (Fig. 11 sweeps this).
fn default_mix() -> Vec<(ModelSpec, f64)> {
    vec![
        (ModelSpec::vit_base(), 0.22),
        (ModelSpec::roberta_large(), 0.18),
        (ModelSpec::bert_large(), 0.18),
        (ModelSpec::t5_1b(), 0.14),
        (ModelSpec::gpt2_xl(), 0.12),
        (ModelSpec::llama2_7b(), 0.10),
        (ModelSpec::llama_30b(), 0.06),
    ]
}

fn sample_model(rng: &mut SmallRng, mix: &[(ModelSpec, f64)]) -> ModelSpec {
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    let mut r = rng.random::<f64>() * total;
    for (spec, w) in mix {
        r -= w;
        if r <= 0.0 {
            return spec.clone();
        }
    }
    mix.last().expect("non-empty mix").0.clone()
}

/// Candidate initial plans for a model at a GPU count, following the Base
/// trace rule: TP/PP are excluded for the small models (< ~1.5 B) where
/// "they are mostly unnecessary"; larger models include all feasible
/// 3D-parallel configurations.
pub fn candidate_plans(
    oracle: &TestbedOracle,
    spec: &ModelSpec,
    gpus: u32,
    global_batch: u32,
) -> Vec<ExecutionPlan> {
    let mut plans = enumerate_plans(spec, gpus, global_batch, oracle.shape(), oracle.env());
    if spec.params < 1.4e9 {
        plans.retain(|p| {
            matches!(
                p.kind(),
                PlanKind::DataParallel | PlanKind::ZeroDp | PlanKind::ZeroOffload
            )
        });
    }
    plans
}

/// One model's [`candidate_plans`] answers, by `(gpus, batch)`.
type Answers = HashMap<(u32, u32), Vec<ExecutionPlan>>;

/// [`candidate_plans`] memoized per `(model, gpus, batch)` for one trace
/// build. The answer depends on nothing else (one build reads one oracle)
/// and draws no randomness, so a build asks each question once and yields
/// the same trace as one that asks every time.
pub(crate) struct PlanMemo<'o> {
    oracle: &'o TestbedOracle,
    /// Per model: the spec the answers were computed for, and the answers.
    /// A build names a handful of models.
    models: Vec<(ModelSpec, Answers)>,
    /// Answers every question afresh (the memo-free reference in tests).
    #[cfg(test)]
    bypass: bool,
}

impl<'o> PlanMemo<'o> {
    pub(crate) fn new(oracle: &'o TestbedOracle) -> PlanMemo<'o> {
        PlanMemo {
            oracle,
            models: Vec::new(),
            #[cfg(test)]
            bypass: false,
        }
    }

    #[cfg(test)]
    pub(crate) fn uncached(oracle: &'o TestbedOracle) -> PlanMemo<'o> {
        PlanMemo {
            bypass: true,
            ..PlanMemo::new(oracle)
        }
    }

    pub(crate) fn oracle(&self) -> &'o TestbedOracle {
        self.oracle
    }

    /// [`candidate_plans`]`(oracle, spec, gpus, global_batch)`.
    pub(crate) fn plans(
        &mut self,
        spec: &ModelSpec,
        gpus: u32,
        global_batch: u32,
    ) -> Vec<ExecutionPlan> {
        #[cfg(test)]
        if self.bypass {
            return candidate_plans(self.oracle, spec, gpus, global_batch);
        }
        let slot = match self.models.iter().position(|(m, _)| m.name == spec.name) {
            Some(i) => i,
            None => {
                self.models.push((spec.clone(), HashMap::new()));
                self.models.len() - 1
            }
        };
        let (model, answers) = &mut self.models[slot];
        debug_assert!(model == spec, "two specs named {} in one build", spec.name);
        let oracle = self.oracle;
        answers
            .entry((gpus, global_batch))
            .or_insert_with(|| candidate_plans(oracle, spec, gpus, global_batch))
            .clone()
    }
}

/// Picks a random initial plan with realistic user weights: plain DP /
/// ZeRO-DP / model-parallel plans are common first choices; gradient
/// accumulation is a tuning knob some users enable; checkpointing and
/// ZeRO-Offload are memory-saving fallbacks users rarely pick voluntarily.
pub fn pick_weighted_plan(plans: &[ExecutionPlan], rng: &mut SmallRng) -> ExecutionPlan {
    let weight = |p: &ExecutionPlan| -> f64 {
        let base = match p.kind() {
            PlanKind::ZeroOffload => 1.0,
            PlanKind::Zero3 => 2.0, // a deliberate memory-saving choice
            _ => 4.0,
        };
        let ga = if p.ga_steps > 1 { 0.5 } else { 1.0 };
        let gc = if p.gc { 0.5 } else { 1.0 };
        base * ga * gc
    };
    let total: f64 = plans.iter().map(weight).sum();
    let mut r = rng.random::<f64>() * total;
    for p in plans {
        r -= weight(p);
        if r <= 0.0 {
            return *p;
        }
    }
    *plans.last().expect("non-empty plan list")
}

/// Generates the **Base trace**: jobs with random feasible initial plans.
///
/// Every job's target mini-batch count is derived from its duration and
/// the *measured* throughput of its requested configuration ("we translate
/// the job duration to a target number of mini-batches using the measured
/// throughput of the model with the GPU number"), so the same trace is
/// comparable across schedulers. Jobs whose sampled GPU count is
/// infeasible for the sampled model get a feasible count with the duration
/// adjusted to preserve GPU-hours.
pub fn generate_base(config: &TraceConfig, oracle: &TestbedOracle) -> Vec<JobSpec> {
    generate_base_with(config, &mut PlanMemo::new(oracle))
}

/// [`generate_base`], asking `memo` for candidate plans.
pub(crate) fn generate_base_with(config: &TraceConfig, memo: &mut PlanMemo<'_>) -> Vec<JobSpec> {
    let oracle = memo.oracle();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let span = config.duration_hours * 3600.0;
    let n = config.num_jobs();
    let shape = *oracle.shape();

    // First pass: raw samples.
    struct Raw {
        arrival: f64,
        model: ModelSpec,
        gpus: u32,
        duration: f64,
        plan: ExecutionPlan,
    }
    let mix = default_mix();
    let mut raws: Vec<Raw> = Vec::with_capacity(n);
    while raws.len() < n {
        let arrival = sample_arrival(&mut rng, span);
        let model = sample_model(&mut rng, &mix);
        let mut gpus = sample_gpus(&mut rng, config.cluster_gpus)
            .max(request_floor(&model))
            .min(config.cluster_gpus);
        let mut duration = sample_duration(&mut rng);
        let batch = model.default_batch;
        // Ensure feasibility: walk GPU counts up (then down) until some
        // plan exists; preserve GPU-hours when we change the count.
        let mut plans = memo.plans(&model, gpus, batch);
        if plans.is_empty() {
            let mut found = None;
            for g in (gpus + 1)..=config.cluster_gpus {
                let p = memo.plans(&model, g, batch);
                if !p.is_empty() {
                    found = Some((g, p));
                    break;
                }
            }
            if found.is_none() {
                for g in (1..gpus).rev() {
                    let p = memo.plans(&model, g, batch);
                    if !p.is_empty() {
                        found = Some((g, p));
                        break;
                    }
                }
            }
            let Some((g, p)) = found else { continue };
            duration *= gpus as f64 / g as f64; // keep GPU-hours
            gpus = g;
            plans = p;
        }
        let plan = pick_weighted_plan(&plans, &mut rng);
        raws.push(Raw {
            arrival,
            model,
            gpus,
            duration,
            plan,
        });
    }

    // Second pass: normalize offered load to the configured utilization.
    let capacity_gpu_secs = config.cluster_gpus as f64 * span;
    let offered: f64 = raws.iter().map(|r| r.gpus as f64 * r.duration).sum();
    let target = config.offered_utilization * config.load_factor * capacity_gpu_secs;
    let scale = target / offered.max(1.0);

    // Third pass: materialize JobSpecs with measured-throughput batch
    // targets.
    let mut jobs: Vec<JobSpec> = Vec::with_capacity(n);
    for (i, raw) in raws.into_iter().enumerate() {
        let duration = (raw.duration * scale).max(60.0);
        let batch = raw.model.default_batch;
        let requested = Resources::new(
            raw.gpus,
            (shape.cpus as f64 * raw.gpus as f64 / shape.gpus as f64).round() as u32,
            shape.mem_gb * raw.gpus as f64 / shape.gpus as f64,
        );
        let placement = Placement::spread(raw.gpus, shape.gpus, requested.cpus, requested.mem_gb);
        let Some(tput) = oracle.throughput(&raw.model, &raw.plan, batch, &placement) else {
            // The sampled plan should be feasible by construction; skip
            // defensively if the oracle disagrees.
            continue;
        };
        let target_batches = ((duration * tput / batch as f64).round() as u64).max(10);
        jobs.push(JobSpec {
            id: i as u64,
            model: raw.model,
            global_batch: batch,
            submit_time: raw.arrival,
            target_batches,
            requested,
            initial_plan: raw.plan,
            // The single-tenant Base/BP traces carry no SLA semantics (the
            // guaranteed/best-effort split only appears in the MT trace),
            // so all jobs compete purely on throughput.
            class: JobClass::BestEffort,
            tenant: TenantId::default(),
        });
    }
    jobs.sort_by(|a, b| a.submit_time.total_cmp(&b.submit_time));
    for (i, j) in jobs.iter_mut().enumerate() {
        j.id = i as u64;
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> TraceConfig {
        TraceConfig {
            base_jobs: 60,
            ..TraceConfig::default()
        }
    }

    #[test]
    fn memoized_plans_build_the_memo_free_trace() {
        for seed in [1, 7, 2025] {
            let oracle = TestbedOracle::new(seed);
            let config = TraceConfig {
                seed,
                ..small_config()
            };
            assert_eq!(
                generate_base(&config, &oracle),
                generate_base_with(&config, &mut PlanMemo::uncached(&oracle)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn trace_is_deterministic() {
        let oracle = TestbedOracle::new(1);
        let a = generate_base(&small_config(), &oracle);
        let b = generate_base(&small_config(), &oracle);
        assert_eq!(a, b);
    }

    #[test]
    fn trace_has_requested_job_count_and_sorted_arrivals() {
        let oracle = TestbedOracle::new(1);
        let jobs = generate_base(&small_config(), &oracle);
        assert!(
            jobs.len() >= 55,
            "almost all jobs materialize: {}",
            jobs.len()
        );
        for w in jobs.windows(2) {
            assert!(w[0].submit_time <= w[1].submit_time);
        }
    }

    #[test]
    fn all_initial_plans_are_feasible() {
        let oracle = TestbedOracle::new(1);
        let jobs = generate_base(&small_config(), &oracle);
        for j in &jobs {
            let placement = Placement::spread(
                j.requested.gpus,
                oracle.shape().gpus,
                j.requested.cpus,
                j.requested.mem_gb,
            );
            assert!(
                oracle
                    .throughput(&j.model, &j.initial_plan, j.global_batch, &placement)
                    .is_some(),
                "job {} has infeasible plan {}",
                j.id,
                j.initial_plan
            );
        }
    }

    #[test]
    fn small_models_avoid_tp_pp_in_base_trace() {
        let oracle = TestbedOracle::new(1);
        let jobs = generate_base(&small_config(), &oracle);
        for j in &jobs {
            if j.model.params < 1.4e9 {
                assert!(
                    !j.initial_plan.parallel.is_model_parallel(),
                    "small model {} got {}",
                    j.model.name,
                    j.initial_plan
                );
            }
        }
    }

    #[test]
    fn offered_load_tracks_load_factor() {
        let oracle = TestbedOracle::new(1);
        let lo = generate_base(
            &TraceConfig {
                load_factor: 0.5,
                ..small_config()
            },
            &oracle,
        );
        let hi = generate_base(
            &TraceConfig {
                load_factor: 1.5,
                ..small_config()
            },
            &oracle,
        );
        assert!(hi.len() > lo.len());
        let hours = |jobs: &[JobSpec]| -> f64 {
            jobs.iter()
                .map(|j| j.requested.gpus as f64 * j.target_batches as f64)
                .sum()
        };
        assert!(hours(&hi) > hours(&lo));
    }

    #[test]
    fn gpu_requests_within_cluster() {
        let oracle = TestbedOracle::new(1);
        let jobs = generate_base(&small_config(), &oracle);
        assert!(jobs.iter().all(|j| j.requested.gpus <= 64));
        // The distribution has small and large jobs.
        assert!(jobs.iter().any(|j| j.requested.gpus == 1));
        assert!(jobs.iter().any(|j| j.requested.gpus >= 8));
    }
}
