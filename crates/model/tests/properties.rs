//! Property-based tests for the performance-model crate: invariants that
//! must hold for *any* input, not just the examples in unit tests.

use proptest::prelude::*;
use rubick_model::perf::{f_overlap, volumes};
use rubick_model::prelude::*;

fn any_model() -> impl Strategy<Value = ModelSpec> {
    prop::sample::select(ModelSpec::zoo())
}

/// Raw per-amount throughputs (0 = infeasible) in the shapes
/// `next_rise` must handle: a zero prefix, repeated values (envelope
/// plateaus), steps just below, at and above `1e-12` (also at a magnitude
/// where `1e-12` is below one ulp), and a curve feasible at one amount
/// only.
fn any_raw() -> impl Strategy<Value = Vec<f64>> {
    let value = prop::sample::select(vec![
        0.0,
        1.0,
        1.0 + 4e-13,
        1.0 + 8e-13,
        1.0 + 1e-12,
        1.0 + 1.3e-12,
        2.0,
        2.0 + 9e-13,
        5.0,
        1e6,
        1e6 + 1e-12,
    ]);
    (
        prop::collection::vec(value, 0..40),
        0usize..12,
        prop::sample::select(vec![None, Some(0usize), Some(7), Some(20)]),
    )
        .prop_map(|(mut raw, zeros, single)| {
            for r in raw.iter_mut().take(zeros) {
                *r = 0.0;
            }
            if let Some(at) = single {
                raw.iter_mut().for_each(|r| *r = 0.0);
                if let Some(r) = raw.get_mut(at) {
                    *r = 3.0;
                }
            }
            raw
        })
}

proptest! {
    /// `f_overlap` always lies in `[max(x,y), x+y]` and is monotone
    /// non-increasing in `k`.
    #[test]
    fn overlap_bounds_and_monotonicity(
        x in 0.0f64..1000.0,
        y in 0.0f64..1000.0,
        k1 in 1.0f64..64.0,
        k2 in 1.0f64..64.0,
    ) {
        let f1 = f_overlap(k1, x, y);
        prop_assert!(f1 >= x.max(y) - 1e-9);
        prop_assert!(f1 <= x + y + 1e-9);
        let (lo, hi) = if k1 <= k2 { (k1, k2) } else { (k2, k1) };
        prop_assert!(f_overlap(hi, x, y) <= f_overlap(lo, x, y) + 1e-9);
    }

    /// Resource vector algebra: add/sub round-trips and the dominance
    /// partial order respects addition.
    #[test]
    fn resource_algebra(
        g1 in 0u32..128, c1 in 0u32..512, m1 in 0.0f64..4096.0,
        g2 in 0u32..128, c2 in 0u32..512, m2 in 0.0f64..4096.0,
    ) {
        let a = Resources::new(g1, c1, m1);
        let b = Resources::new(g2, c2, m2);
        let sum = a + b;
        prop_assert!(sum.dominates(&a));
        prop_assert!(sum.dominates(&b));
        let back = sum - b;
        prop_assert_eq!(back.gpus, a.gpus);
        prop_assert_eq!(back.cpus, a.cpus);
        prop_assert!((back.mem_gb - a.mem_gb).abs() < 1e-6);
        // min/max bracket both operands.
        prop_assert!(a.max(&b).dominates(&a.min(&b)));
    }

    /// Every enumerated plan is structurally valid, uses exactly the
    /// requested GPU count, and is memory-feasible on the packed placement.
    #[test]
    fn enumerated_plans_are_valid(spec in any_model(), gpus in 1u32..33) {
        let batch = spec.default_batch;
        let shape = NodeShape::a800();
        let env = ClusterEnv::a800();
        let estimator = MemoryEstimator::new(shape.gpu_mem_gb);
        let placement = Placement::packed(gpus, &shape);
        for plan in enumerate_plans(&spec, gpus, batch, &shape, &env) {
            prop_assert!(plan.validate(&spec, batch).is_ok(), "{plan} invalid");
            prop_assert_eq!(plan.gpus(), gpus);
            prop_assert!(
                estimator.check_feasible(&spec, &plan, &placement, batch, &env).is_ok(),
                "{} infeasible for {}", plan, spec.name
            );
        }
    }

    /// Iteration-time predictions are positive and finite for any feasible
    /// plan, and throughput equals `b / T_iter`.
    #[test]
    fn predictions_are_finite_positive(
        spec in any_model(),
        gpus in 1u32..33,
        k_bwd in 1.0f64..4.0,
        k_sync in 1.0f64..16.0,
    ) {
        let batch = spec.default_batch;
        let params = PerfParams { k_bwd, k_sync, ..PerfParams::default() };
        let env = ClusterEnv::a800();
        let shape = NodeShape::a800();
        let placement = Placement::packed(gpus, &shape);
        for plan in enumerate_plans(&spec, gpus, batch, &shape, &env) {
            let t = params.iter_time(&spec, &plan, batch, &placement, &env);
            prop_assert!(t.is_finite() && t > 0.0, "bad time {t} for {plan}");
            let tput = params.throughput(&spec, &plan, batch, &placement, &env);
            prop_assert!((tput - batch as f64 / t).abs() < 1e-9);
        }
    }

    /// Communication volumes are non-negative, zero exactly when the
    /// corresponding parallel degree is 1, and DP volume is monotone in d.
    #[test]
    fn volume_structure(spec in any_model(), d1 in 1u32..32, d2 in 1u32..32) {
        let batch = 64;
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let v_lo = volumes(&spec, &ExecutionPlan::dp(lo), batch);
        let v_hi = volumes(&spec, &ExecutionPlan::dp(hi), batch);
        prop_assert!(v_lo.dp_bytes >= 0.0 && v_lo.tp_bytes == 0.0 && v_lo.pp_bytes == 0.0);
        prop_assert!(v_hi.dp_bytes >= v_lo.dp_bytes - 1e-9);
        if lo == 1 {
            prop_assert_eq!(v_lo.dp_bytes, 0.0);
        }
    }

    /// GPU memory estimates: GC never increases memory; GA never increases
    /// memory; more TP never increases memory (for valid configurations).
    #[test]
    fn memory_monotonicity(spec in any_model(), tp_pow in 0u32..4) {
        let batch = spec.default_batch;
        let est = MemoryEstimator::default();
        let t = 1u32 << tp_pow;
        if spec.hidden % t != 0 {
            return Ok(());
        }
        let base = ExecutionPlan::three_d(1, t, 1, 1);
        if base.validate(&spec, batch).is_err() {
            return Ok(());
        }
        let m_plain = est.gpu_mem_gb(&spec, &base, batch);
        let m_gc = est.gpu_mem_gb(&spec, &base.with_gc(), batch);
        prop_assert!(m_gc <= m_plain + 1e-9);
        if t > 1 {
            let wider = ExecutionPlan::three_d(1, t / 2, 1, 1);
            let m_narrower = est.gpu_mem_gb(&spec, &wider, batch);
            prop_assert!(m_plain <= m_narrower + 1e-9);
        }
    }

    /// Sensitivity-curve envelope is monotone non-decreasing and
    /// `best_plan_at(g)` never uses more than `g` GPUs;
    /// `min_amount_reaching` is a one-sided inverse of `value`.
    #[test]
    fn curve_envelope_properties(spec in any_model(), max_gpus in 2u32..17) {
        let model = ThroughputModel::new(
            spec,
            PerfParams::default(),
            ClusterEnv::a800(),
            NodeShape::a800(),
        );
        let batch = model.spec.default_batch;
        let curve = SensitivityCurve::for_gpus(&model, batch, max_gpus);
        for g in 1..=max_gpus {
            prop_assert!(curve.value(g) >= curve.value(g - 1) - 1e-12);
            if let Some((plan, tput)) = curve.best_plan_at(g) {
                prop_assert!(plan.gpus() <= g);
                prop_assert!(tput <= curve.value(g) + 1e-9);
            }
            let v = curve.value(g);
            if v > 0.0 {
                let g_min = curve.min_amount_reaching(v).expect("reachable");
                prop_assert!(g_min <= g);
                prop_assert!(curve.value(g_min) >= v - 1e-9);
            }
        }
    }

    /// `next_rise(a)` is the forward walk it replaces at every amount,
    /// including amounts past the curve's end.
    #[test]
    fn next_rise_matches_forward_walk(raw in any_raw()) {
        let curve = SensitivityCurve::from_fn(raw.len() as u32, |a| {
            let t = raw[a as usize - 1];
            (t > 0.0).then(|| (ExecutionPlan::dp(a), t))
        });
        let max = curve.max_amount();
        for a in 0..=max + 2 {
            let here = curve.value(a);
            let walk = (a + 1..=max).find(|&b| curve.value(b) > here + 1e-12);
            prop_assert_eq!(curve.next_rise(a), walk, "amount {} of {:?}", a, raw);
        }
    }

    /// Placement spreading conserves GPUs and respects per-node limits.
    #[test]
    fn placement_spread_conserves(gpus in 1u32..129, per_node in 1u32..9) {
        let p = Placement::spread(gpus, per_node, 10, 10.0);
        prop_assert_eq!(p.total_gpus(), gpus);
        prop_assert!(p.gpus_per_node.iter().all(|&g| g >= 1 && g <= per_node));
        // Only the last node may be partially filled.
        for w in p.gpus_per_node.windows(2) {
            prop_assert_eq!(w[0], per_node);
            let _ = w;
        }
    }

    /// Plan labels are non-empty, stable, and parse-consistent with the
    /// plan's structure (mention GC/GA exactly when active).
    #[test]
    fn plan_labels_reflect_structure(spec in any_model(), gpus in 1u32..17) {
        for plan in enumerate_plans(
            &spec,
            gpus,
            spec.default_batch,
            &NodeShape::a800(),
            &ClusterEnv::a800(),
        ) {
            let label = plan.label();
            prop_assert!(!label.is_empty());
            prop_assert_eq!(label.contains("GC"), plan.gc);
            prop_assert_eq!(label.contains("GA"), plan.ga_steps > 1);
            prop_assert_eq!(plan.to_string(), label);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fitting synthetic data generated by the model itself recovers a
    /// low-error fit for any ground truth within the parameter bounds.
    #[test]
    fn fit_recovers_random_truths(
        k_bwd in 1.5f64..3.0,
        k_sync in 1.5f64..8.0,
        k_opt in 0.01f64..0.2,
        k_opt_off in 1.0f64..30.0,
    ) {
        use rubick_model::fit::{fit_perf_params, DataPoint, FitOptions};
        let spec = ModelSpec::roberta_large();
        let env = ClusterEnv::a800();
        let truth = PerfParams {
            k_bwd,
            k_sync,
            k_opt,
            k_opt_off,
            ..PerfParams::default()
        };
        let shape = NodeShape::a800();
        let points: Vec<DataPoint> = [
            (ExecutionPlan::dp(1), 1u32),
            (ExecutionPlan::dp(4), 4),
            (ExecutionPlan::dp(8).with_ga(2), 8),
            (ExecutionPlan::zero_dp(8), 8),
            (ExecutionPlan::zero_offload(1), 1),
            (ExecutionPlan::zero_offload(2), 2),
            (ExecutionPlan::zero_offload(4).with_gc(), 4),
        ]
        .into_iter()
        .map(|(plan, g)| {
            let placement = Placement::packed(g, &shape);
            let t = truth.iter_time(&spec, &plan, 64, &placement, &env);
            DataPoint::new(plan, placement, 64, t)
        })
        .collect();
        let fit = fit_perf_params(&spec, &env, &points, &FitOptions::default()).unwrap();
        prop_assert!(fit.rmsle < 0.05, "rmsle {} too high for truth {truth:?}", fit.rmsle);
    }
}
