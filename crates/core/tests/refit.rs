//! End-to-end suite for online throughput-model refitting
//! (`rubick-refit` wired through the engine's `RefitHook` boundary).
//!
//! Pins the four contracts the subsystem promises:
//!
//! 1. **Re-plan coupling** — a material refit bumps the shared registry
//!    version, so the *next* `round_planned` event classifies every job
//!    dirty (the epoch fingerprint embeds the registry version).
//! 2. **Determinism** — a refit-enabled run is pinned byte for byte: the
//!    hook runs on the engine's apply path, after the round's plan search
//!    has fully completed, so the same inputs give the same refits.
//! 3. **Convergence** — starting from a deliberately stale offline fit,
//!    the refitted parameters predict the observed truth strictly better
//!    than the stale ones did.
//! 4. **Straggler hygiene** — chaos-capped observations never enter the
//!    fit: an accurate model stays untouched no matter how hard the
//!    cluster straggles, and the run is byte-identical to refit-off —
//!    whose registry version never moves, because the hook is the only
//!    refit path.
//!
//! Contract 2's run (report `Debug` line plus event JSONL) is a golden
//! snapshot, so any change to the refitter or the fit objectives that
//! moves a single bit of a refit shows up here.
//! Regenerate it after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p rubick-core --test refit
//! ```

use proptest::prelude::*;
use rubick_chaos::{ChaosConfig, FaultPlan};
use rubick_core::{ModelRegistry, RubickScheduler};
use rubick_model::prelude::*;
use rubick_obs::{SimEvent, VecSink};
use rubick_refit::{RefitConfig, RegistryRefitter};
use rubick_sim::cluster::Cluster;
use rubick_sim::engine::{Engine, EngineConfig};
use rubick_sim::job::{JobClass, JobSpec, JobStatus};
use rubick_sim::metrics::SimReport;
use rubick_sim::scheduler::{Assignment, JobSnapshot, Scheduler};
use rubick_sim::tenant::TenantId;
use rubick_testbed::TestbedOracle;
use std::path::PathBuf;
use std::sync::Arc;

const ORACLE_SEED: u64 = 77;

/// How far the "stale offline fit" is from the truth: every fittable
/// parameter scaled up, so predictions run ~40% slow and the very first
/// full observation window exceeds the 0.15 material-change threshold.
const STALE_SCALE: f64 = 1.4;

/// A deterministic staggered mix across the zoo, sized so rounds really
/// contend.
fn workload(jobs: u64, target_batches: u64) -> Vec<JobSpec> {
    let zoo = ModelSpec::zoo();
    (0..jobs)
        .filter_map(|i| {
            let model = zoo[i as usize % zoo.len()].clone();
            let gpus = [1u32, 2, 4, 8][i as usize % 4].max(if model.params >= 2.0e10 {
                16
            } else if model.params >= 5.0e9 {
                8
            } else {
                1
            });
            let plan = enumerate_plans(
                &model,
                gpus,
                model.default_batch,
                &NodeShape::a800(),
                &ClusterEnv::a800(),
            )
            .into_iter()
            .next()?;
            Some(JobSpec {
                id: i,
                global_batch: model.default_batch,
                submit_time: (i as f64) * 120.0,
                target_batches,
                requested: Resources::new(gpus, gpus * 6, gpus as f64 * 100.0),
                initial_plan: plan,
                class: if i % 3 == 0 {
                    JobClass::BestEffort
                } else {
                    JobClass::Guaranteed
                },
                tenant: TenantId::default(),
                model,
            })
        })
        .collect()
}

/// A registry whose offline fit has gone stale: every model's parameters
/// scaled by [`STALE_SCALE`], as if the profiling pass ran on different
/// hardware than the cluster the jobs now execute on.
fn stale_registry(oracle: &TestbedOracle) -> Arc<ModelRegistry> {
    let registry = ModelRegistry::from_oracle(oracle, &ModelSpec::zoo()).unwrap();
    for name in registry.names() {
        let model = registry.model(&name).unwrap();
        let mut v = model.params.to_vec();
        for k in &mut v {
            *k *= STALE_SCALE;
        }
        let stale = PerfParams::from_vec(&v, model.params.gpu_flops);
        registry.insert(ThroughputModel::new(
            model.spec.clone(),
            stale,
            model.env,
            *registry.shape(),
        ));
    }
    Arc::new(registry)
}

/// A freshly profiled registry over the zoo — stale (see
/// [`stale_registry`]) or accurate.
fn fresh_registry(stale: bool) -> Arc<ModelRegistry> {
    let oracle = TestbedOracle::new(ORACLE_SEED);
    if stale {
        stale_registry(&oracle)
    } else {
        Arc::new(ModelRegistry::from_oracle(&oracle, &ModelSpec::zoo()).unwrap())
    }
}

/// Runs the workload over `registry`, with a refit hook attached when
/// `threshold` is `Some`, returning the report and the full event stream.
/// The registry is shared with the scheduler (and hook), so callers can
/// inspect it after the run.
fn run_refit(
    registry: &Arc<ModelRegistry>,
    threshold: Option<f64>,
    chaos: Option<FaultPlan>,
    specs: &[JobSpec],
) -> (SimReport, Vec<SimEvent>) {
    let oracle = TestbedOracle::new(ORACLE_SEED);
    let mut engine = Engine::new(
        &oracle,
        Box::new(RubickScheduler::new(Arc::clone(registry))),
        Cluster::a800_testbed(),
        vec![],
        EngineConfig {
            emit_round_planned: true,
            ..EngineConfig::default()
        },
    );
    if let Some(t) = threshold {
        engine.set_refit_hook(Box::new(RegistryRefitter::new(
            Arc::clone(registry),
            RefitConfig::with_threshold(t),
        )));
    }
    if let Some(plan) = chaos {
        engine = engine.with_chaos(plan);
    }
    let mut sink = VecSink::default();
    let report = engine.run_with_sink(specs.to_vec(), &mut sink);
    (report, sink.events)
}

fn jsonl(events: &[SimEvent]) -> String {
    let mut s = String::new();
    for e in events {
        s.push_str(&e.to_jsonl());
        s.push('\n');
    }
    s
}

/// Contract 1: a `model_refit` event is followed by a round that
/// classifies **every** job dirty — the registry-version bump voids all
/// clean-skip certificates through the existing epoch path.
#[test]
fn material_refit_replans_every_job_next_round() {
    let specs = workload(24, 400);
    let (report, events) = run_refit(&fresh_registry(true), Some(0.15), None, &specs);

    assert!(
        report.model_refits > 0,
        "a {STALE_SCALE}x-stale offline fit must trigger at least one refit"
    );
    let first_refit = events
        .iter()
        .position(|e| matches!(e, SimEvent::ModelRefit { .. }))
        .expect("model_refit event must be in the stream");
    let next_round = events[first_refit..]
        .iter()
        .find_map(|e| match e {
            SimEvent::RoundPlanned {
                dirty,
                clean,
                round,
                ..
            } => Some((*dirty, *clean, *round)),
            _ => None,
        })
        .expect("a scheduling round must follow the refit");
    let (dirty, clean, round) = next_round;
    assert!(
        dirty > 0,
        "round {round} after a refit must re-search jobs (dirty={dirty})"
    );
    assert_eq!(
        clean, 0,
        "round {round} after a refit must not reuse any certificate \
         (clean={clean}, dirty={dirty}) — the version bump invalidates all of them"
    );

    // The refit shows up in the event stream with a material shift and
    // actually-different parameters.
    match &events[first_refit] {
        SimEvent::ModelRefit {
            shift,
            old_params,
            new_params,
            ..
        } => {
            assert!(*shift > 0.15, "shift {shift} must exceed the threshold");
            assert_ne!(old_params, new_params);
        }
        other => panic!("expected model_refit, got {other:?}"),
    }
}

/// A scheduler-level snapshot of `spec`: queued since submission, or
/// running `assigned` with a long runtime (so its penalty gate is open).
fn snapshot(
    spec: &JobSpec,
    assigned: Option<&Assignment>,
    registry: &ModelRegistry,
) -> JobSnapshot {
    let status = match assigned {
        None => JobStatus::Queued,
        Some(a) => {
            let model = registry.model(&spec.model.name).unwrap();
            JobStatus::Running {
                throughput: model
                    .throughput(&a.plan, spec.global_batch, &a.allocation.to_placement())
                    .unwrap(),
                allocation: a.allocation.clone(),
                plan: a.plan,
                resume_at: 0.0,
            }
        }
    };
    JobSnapshot {
        spec: Arc::new(spec.clone()),
        runtime: if assigned.is_some() { 5_000.0 } else { 0.0 },
        status,
        remaining_batches: spec.target_batches as f64,
        queued_since: spec.submit_time,
        reconfig_count: 0,
        baseline_throughput: None,
    }
}

/// Contract 1 at the plan-search layer: the scheduler's best-plan memo
/// outlives rounds, so a refit must void it. A scheduler plans a few
/// rounds, a refit lands in its registry, and its next round must equal
/// a fresh scheduler's round on the same snapshot. The refit changes which
/// plan is best on some placements, so a memo that kept its entries would
/// answer with stale plans (with them, this round diverges).
#[test]
fn round_after_refit_matches_a_fresh_scheduler() {
    let registry = fresh_registry(false);
    let cluster = Cluster::a800_testbed();
    let specs = workload(24, 4000);
    let now = specs.last().unwrap().submit_time;
    let queued: Vec<JobSnapshot> = specs.iter().map(|s| snapshot(s, None, &registry)).collect();
    let mut sched = RubickScheduler::new(Arc::clone(&registry));
    let admitted = sched.schedule(now, &queued, &cluster, &[]);
    let jobs: Vec<JobSnapshot> = specs
        .iter()
        .map(|s| snapshot(s, admitted.iter().find(|a| a.job == s.id), &registry))
        .collect();
    let before = sched.schedule(now, &jobs, &cluster, &[]);
    assert_eq!(sched.schedule(now, &jobs, &cluster, &[]), before);

    // The refit: backward passes 3x dearer and no overlap with DP sync.
    let stale = registry.clone_fitted();
    for name in registry.names() {
        let mut refitted = (*registry.model(&name).unwrap()).clone();
        refitted.params.k_bwd *= 3.0;
        refitted.params.k_sync = 1.0;
        registry.insert(refitted);
    }
    let flipped = specs.iter().any(|spec| {
        (1..=16).any(|gpus| {
            let placement = Placement::packed(gpus, registry.shape());
            let best = |r: &ModelRegistry| {
                r.model(&spec.model.name)
                    .unwrap()
                    .best_plan(spec.global_batch, &placement)
                    .map(|(plan, _)| plan)
            };
            best(&stale) != best(&registry)
        })
    });
    assert!(flipped, "the refit must change some best plan");

    let after = sched.schedule(now, &jobs, &cluster, &[]);
    let fresh = RubickScheduler::new(Arc::clone(&registry)).schedule(now, &jobs, &cluster, &[]);
    assert_eq!(after, fresh, "a refit must void every memoized plan");
}

/// Contract 2: the refit-enabled run is pinned byte for byte — the
/// report's `Debug` line, then one JSONL line per event, `model_refit`
/// events included.
#[test]
fn sequential_baseline_matches_golden() {
    let specs = workload(24, 400);
    let (report, events) = run_refit(&fresh_registry(true), Some(0.15), None, &specs);
    assert!(report.model_refits > 0, "baseline must actually refit");
    let actual = format!("{report:?}\n{}", jsonl(&events));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/refit_events.jsonl");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        eprintln!("updated golden file {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "refit run drifted from {} — if the refit or fit change is \
         intentional, regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}

/// Contract 3: after the run, every refitted model predicts closer to the
/// fresh offline fit (the observable truth, up to measurement noise) than
/// the stale parameters it started from.
#[test]
fn refit_converges_toward_observed_truth() {
    let specs = workload(24, 400);
    let registry = fresh_registry(true);
    let (report, events) = run_refit(&registry, Some(0.15), None, &specs);
    assert!(report.model_refits > 0);

    let truth =
        ModelRegistry::from_oracle(&TestbedOracle::new(ORACLE_SEED), &ModelSpec::zoo()).unwrap();
    let mut refit_models: Vec<Arc<str>> = events
        .iter()
        .filter_map(|e| match e {
            SimEvent::ModelRefit { model, .. } => Some(model.clone()),
            _ => None,
        })
        .collect();
    refit_models.sort();
    refit_models.dedup();
    assert!(!refit_models.is_empty());

    for name in &refit_models {
        let fitted = registry.model(name).unwrap();
        let reference = truth.model(name).unwrap();
        let mut stale_v = reference.params.to_vec();
        for k in &mut stale_v {
            *k *= STALE_SCALE;
        }
        let stale = PerfParams::from_vec(&stale_v, reference.params.gpu_flops);

        // Probe the predicted envelope over simple data-parallel configs;
        // PerfParams::iter_time is the raw analytic model, no feasibility
        // gate, so every probe is well-defined.
        let shape = *registry.shape();
        let mut err_fitted = 0.0_f64;
        let mut err_stale = 0.0_f64;
        for k in 0..4u32 {
            let gpus = 1 << k;
            let plan = ExecutionPlan::dp(gpus);
            let placement = Placement::packed(gpus, &shape);
            let batch = reference.spec.default_batch;
            let t_truth = reference.params.iter_time(
                &reference.spec,
                &plan,
                batch,
                &placement,
                &reference.env,
            );
            let t_fitted =
                fitted
                    .params
                    .iter_time(&reference.spec, &plan, batch, &placement, &reference.env);
            let t_stale =
                stale.iter_time(&reference.spec, &plan, batch, &placement, &reference.env);
            err_fitted = err_fitted.max(((t_fitted - t_truth) / t_truth).abs());
            err_stale = err_stale.max(((t_stale - t_truth) / t_truth).abs());
        }
        assert!(
            err_fitted < err_stale,
            "{name}: refit must tighten the envelope (refit err {err_fitted:.3} \
             vs stale err {err_stale:.3})"
        );
    }
}

/// Builds a straggler-only fault plan: `nodes` nodes capped at `factor`
/// for the whole run. No failures, so the only chaos signal reaching the
/// refit hook is the straggler cap on observed iteration times.
fn straggler_plan(nodes: usize, factor: f64) -> FaultPlan {
    let mut scenario = String::new();
    for node in 0..nodes {
        scenario.push_str(&format!("straggle {node} {factor:.2}\n"));
    }
    let cfg = ChaosConfig::parse(&scenario).unwrap();
    FaultPlan::compile(&cfg, 8, EngineConfig::default().max_time).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Contract 4: straggler-capped observations are excluded from the
    /// fit. With every node straggling, every observed iteration time is
    /// `1/factor` times the model's prediction — at `factor <= 0.7`
    /// that is far past the 0.15 threshold, so *without* the exclusion
    /// the hook would refit on the very first full window. With it, the
    /// model is never touched and the refit-enabled run stays
    /// byte-identical to the refit-off run under the same fault plan.
    /// The refit-off run is frozen outright: nothing inside the policy
    /// refits behind the hook's back, so its registry version never moves.
    #[test]
    fn stragglers_never_corrupt_the_model(factor in 0.3f64..0.7) {
        let specs = workload(12, 200);
        // All 8 testbed nodes straggle: every observation carries a cap.
        let plan = straggler_plan(8, factor);
        let (on, on_events) =
            run_refit(&fresh_registry(false), Some(0.15), Some(plan.clone()), &specs);
        prop_assert_eq!(
            on.model_refits, 0,
            "straggler-capped observations must not refit the model \
             (all nodes at {:.2})", factor
        );
        let frozen = fresh_registry(false);
        let version_before = frozen.version();
        let (off, off_events) = run_refit(&frozen, None, Some(plan), &specs);
        prop_assert_eq!(
            frozen.version(), version_before,
            "a run without a refit hook must keep its model frozen \
             (all nodes at {:.2})", factor
        );
        prop_assert_eq!(&format!("{on:?}"), &format!("{off:?}"));
        prop_assert_eq!(&jsonl(&on_events), &jsonl(&off_events));
    }
}
