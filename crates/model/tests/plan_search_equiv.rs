//! Equivalence proofs for the allocation-free plan-search rewrite.
//!
//! Every optimized path — the lazy [`PlanEnumerator`], the
//! [`PlanSetCache`]-backed unchecked `best_plan`, the placement-class
//! [`BestPlanMemo`], the O(1) `envelope_idx` curve lookups, and the
//! in-place restricted curve builds a [`CurveCache`] files under a DP-free
//! key — must produce output *bit-identical* to
//! the retained naive reference in [`rubick_model::reference`]. These
//! property tests sweep the full seven-model zoo and 1..=16 GPUs so any
//! divergence in plan ordering, feasibility filtering, float scoring or
//! envelope bookkeeping fails loudly.

use proptest::prelude::*;
use rubick_model::prelude::*;
use rubick_model::reference;
use std::sync::Arc;

fn any_model() -> impl Strategy<Value = ModelSpec> {
    prop::sample::select(ModelSpec::zoo())
}

fn model_for(spec: ModelSpec) -> ThroughputModel {
    ThroughputModel::new(
        spec,
        PerfParams::default(),
        ClusterEnv::a800(),
        NodeShape::a800(),
    )
}

proptest! {
    /// The lazy enumerator yields exactly the naive eager sequence: same
    /// plans, same order, nothing extra, nothing missing.
    #[test]
    fn enumerator_matches_naive(
        spec in any_model(),
        gpus in 0u32..17,
        batch in prop::sample::select(vec![8u32, 16, 64, 256]),
    ) {
        let shape = NodeShape::a800();
        let env = ClusterEnv::a800();
        let lazy: Vec<ExecutionPlan> =
            PlanEnumerator::new(&spec, gpus, batch, &shape, &env).collect();
        let naive = reference::enumerate_plans_naive(&spec, gpus, batch, &shape, &env);
        prop_assert_eq!(lazy, naive);
    }

    /// The cached + unchecked `best_plan` picks the same plan with the same
    /// throughput bits as the naive re-enumerate-and-recheck loop, on the
    /// packed placement the plan sets were built against.
    #[test]
    fn best_plan_matches_naive_on_packed(
        spec in any_model(),
        gpus in 1u32..17,
        batch in prop::sample::select(vec![8u32, 16, 64]),
    ) {
        let model = model_for(spec);
        let placement = Placement::packed(gpus, &model.shape);
        let cache = PlanSetCache::new();
        let fast = model.best_plan_in(&cache, batch, &placement);
        let naive = reference::best_plan_naive(&model, batch, &placement);
        prop_assert_eq!(
            fast.map(|(p, t)| (p, t.to_bits())),
            naive.map(|(p, t)| (p, t.to_bits()))
        );
        // A warm second call must be identical too (cache hit path).
        let warm = model.best_plan_in(&cache, batch, &placement);
        prop_assert_eq!(
            warm.map(|(p, t)| (p, t.to_bits())),
            fast.map(|(p, t)| (p, t.to_bits()))
        );
    }

    /// On a placement with *less* host memory than the packed one the fast
    /// path must re-apply the per-plan host-memory check and still agree
    /// with the naive checked loop exactly.
    #[test]
    fn best_plan_matches_naive_on_reduced_host(
        spec in any_model(),
        gpus in 1u32..17,
        frac in prop::sample::select(vec![0.0f64, 0.05, 0.25, 0.5, 0.9]),
    ) {
        let model = model_for(spec);
        let batch = 16u32;
        let mut placement = Placement::packed(gpus, &model.shape);
        placement.host_mem_gb *= frac;
        let fast = model.best_plan(batch, &placement);
        let naive = reference::best_plan_naive(&model, batch, &placement);
        prop_assert_eq!(
            fast.map(|(p, t)| (p, t.to_bits())),
            naive.map(|(p, t)| (p, t.to_bits()))
        );
    }

    /// GPU curves match the naive construction as full structs — including
    /// the precomputed `envelope_idx`, which the reference derives by the
    /// original per-query walk-back.
    #[test]
    fn gpu_curve_matches_naive(
        spec in any_model(),
        max_gpus in 1u32..17,
        batch in prop::sample::select(vec![16u32, 64]),
    ) {
        let model = model_for(spec);
        let fast = SensitivityCurve::for_gpus(&model, batch, max_gpus);
        let naive = reference::for_gpus_naive(&model, batch, max_gpus);
        prop_assert_eq!(&fast, &naive);
        // And the O(1) lookup agrees with walking the naive points.
        for amount in 0..=max_gpus {
            prop_assert_eq!(
                fast.best_plan_at(amount).map(|(p, t)| (p, t.to_bits())),
                naive.best_plan_at(amount).map(|(p, t)| (p, t.to_bits()))
            );
        }
    }

    /// Restricted curves served by a [`CurveCache`] equal the naive build —
    /// a packed placement per amount, then the collected-candidates loop —
    /// bit for bit, for DP-rescale and fixed-plan bases drawn from the
    /// model's feasible plans. Two DP-rescale bases that differ only in DP
    /// degree hit one entry: the second lookup returns the first's `Arc`.
    #[test]
    fn cached_restricted_curve_matches_naive(
        spec in any_model(),
        base_gpus in prop::sample::select(vec![1u32, 2, 4, 8, 16]),
        pick in 0usize..1024,
        dps in (1u32..9, 1u32..9),
        batch in prop::sample::select(vec![8u32, 16, 64]),
        max_gpus in 1u32..33,
    ) {
        let model = model_for(spec);
        let plans = enumerate_plans(&model.spec, base_gpus, batch, &model.shape, &model.env);
        let Some(&plan) = plans.get(pick % plans.len().max(1)) else {
            return Ok(());
        };
        let with_dp = |dp| {
            let mut base = plan;
            base.parallel.dp = dp;
            PlanSearch::DpScale(base)
        };
        let cache = CurveCache::new();
        let scaled = cache.gpu_curve(&model, &with_dp(dps.0), batch, max_gpus);
        let naive = reference::restricted_gpu_curve_naive(&with_dp(dps.0), &model, batch, max_gpus);
        prop_assert_eq!(reference::curve_bits(&scaled), reference::curve_bits(&naive));
        let other = cache.gpu_curve(&model, &with_dp(dps.1), batch, max_gpus);
        prop_assert!(Arc::ptr_eq(&scaled, &other), "DP {} and {} built twice", dps.0, dps.1);
        prop_assert_eq!(cache.len(), 1);
        let naive = reference::restricted_gpu_curve_naive(&with_dp(dps.1), &model, batch, max_gpus);
        prop_assert_eq!(reference::curve_bits(&other), reference::curve_bits(&naive));

        let fixed = PlanSearch::Fixed(plan);
        let cached = cache.gpu_curve(&model, &fixed, batch, max_gpus);
        let naive = reference::restricted_gpu_curve_naive(&fixed, &model, batch, max_gpus);
        prop_assert_eq!(reference::curve_bits(&cached), reference::curve_bits(&naive));
        prop_assert_eq!(cache.len(), 2);
    }

    /// The placement-class memo answers exactly like the uncached scan and
    /// the naive checked loop, on its misses and its hits. One memo sees,
    /// in order: a drawn layout, another layout of the same class (a hit),
    /// the first layout with other CPUs, then with other host memory (each
    /// on either side of the packed share), then with exactly the largest
    /// host demand in the plan set, one node of the same total, two unequal
    /// nodes of it, and the first layout again (a hit). A key
    /// that drops a field the scan reads returns a stale answer at one of
    /// these steps. The optimizer parameters are drawn too, so that
    /// ZeRO-Offload — the only plan kind that reads `cpus` — often wins.
    #[test]
    fn memo_matches_scan_and_naive(
        spec in any_model(),
        k_opt in (0.01f64..1.0, 0.1f64..2.0),
        min_node in 1u32..5,
        extra in prop::collection::vec(0u32..5, 0..3),
        cpus in (0u32..160, 0u32..160),
        host_frac in (
            prop::sample::select(vec![0.0f64, 0.1, 0.5, 0.99, 1.0, 1.5]),
            prop::sample::select(vec![0.0f64, 0.1, 0.5, 0.99, 1.0, 1.5]),
        ),
        batch in prop::sample::select(vec![8u32, 16, 64]),
    ) {
        let mut model = model_for(spec);
        (model.params.k_opt, model.params.k_opt_off) = k_opt;
        // `[m, m+e1, …]` and `[m+Σe, m, …]`: same total, same spanning,
        // same smallest node — one class, two layouts.
        let mut layout = vec![min_node];
        layout.extend(extra.iter().map(|e| min_node + e));
        let mut relaid = vec![min_node + extra.iter().sum::<u32>()];
        relaid.extend(extra.iter().map(|_| min_node));
        if extra.is_empty() {
            relaid = layout.clone();
        }
        let gpus: u32 = layout.iter().sum();
        let lopsided = if gpus > 1 { vec![gpus - 1, 1] } else { vec![1] };
        let at_host = |gpus_per_node: &[u32], cpus: u32, host_mem_gb: f64| Placement {
            gpus_per_node: gpus_per_node.to_vec(),
            cpus,
            host_mem_gb,
        };
        let at = |gpus_per_node: &[u32], cpus: u32, frac: f64| {
            at_host(gpus_per_node, cpus, model.shape.packed_host_mem_gb(gpus) * frac)
        };
        let estimator = MemoryEstimator::new(model.shape.gpu_mem_gb);
        let top_demand = enumerate_plans(&model.spec, gpus, batch, &model.shape, &model.env)
            .iter()
            .map(|p| estimator.host_mem_gb(&model.spec, p))
            .fold(0.0, f64::max);
        let steps = [
            at(&layout, cpus.0, host_frac.0),
            at(&relaid, cpus.0, host_frac.0),
            at(&layout, cpus.1, host_frac.0),
            at(&layout, cpus.0, host_frac.1),
            at_host(&layout, cpus.0, top_demand),
            at(&[gpus], cpus.0, host_frac.0),
            at(&lopsided, cpus.0, host_frac.0),
            at(&layout, cpus.0, host_frac.0),
        ];
        let cache = PlanSetCache::new();
        let mut memo = BestPlanMemo::new();
        let bits = |r: Option<(ExecutionPlan, f64)>| r.map(|(p, t)| (p, t.to_bits()));
        for (step, p) in steps.iter().enumerate() {
            let memoized = bits(memo.best_plan(&model, &cache, batch, p));
            let scanned = bits(model.best_plan_in(&cache, batch, p));
            let naive = bits(reference::best_plan_naive(&model, batch, p));
            prop_assert_eq!(memoized, scanned, "memo vs scan at step {} on {}", step, p);
            prop_assert_eq!(memoized, naive, "memo vs naive at step {} on {}", step, p);
        }
        prop_assert!(memo.len() <= 6, "the re-layout and the repeat must hit");
    }

    /// Spanning placements are keyed by how many of the plan set's TP
    /// degrees fit on their smallest node, not by that node's GPU count.
    /// For every pair of smallest nodes `m1 < m2` of two-node layouts of
    /// one total, a fresh memo sees `[m1, g − m1]`, then `[g − m2, m2]`,
    /// then the first again. When no TP degree of the set lies in
    /// `(m1, m2]`, every plan sees the same bandwidths on both and the
    /// pair stores one entry; when one does, it stores two. Every answer
    /// equals the uncached scan and the naive checked loop bit for bit.
    #[test]
    fn spanning_layouts_share_an_entry_per_tp_fit_rank(
        spec in any_model(),
        gpus in 2u32..17,
        k_opt in (0.01f64..1.0, 0.1f64..2.0),
        cpus in 1u32..160,
        host_frac in prop::sample::select(vec![0.5f64, 1.0]),
        batch in prop::sample::select(vec![8u32, 16, 64]),
    ) {
        let mut model = model_for(spec);
        (model.params.k_opt, model.params.k_opt_off) = k_opt;
        let cache = PlanSetCache::new();
        let plans = cache.plans(&model.spec, gpus, batch, &model.shape, &model.env);
        let at = |gpus_per_node: Vec<u32>| Placement {
            gpus_per_node,
            cpus,
            host_mem_gb: model.shape.packed_host_mem_gb(gpus) * host_frac,
        };
        let bits = |r: Option<(ExecutionPlan, f64)>| r.map(|(p, t)| (p, t.to_bits()));
        for m1 in 1..=gpus / 2 {
            for m2 in m1 + 1..=gpus / 2 {
                let steps = [
                    at(vec![m1, gpus - m1]),
                    at(vec![gpus - m2, m2]),
                    at(vec![m1, gpus - m1]),
                ];
                let mut memo = BestPlanMemo::new();
                for p in &steps {
                    let memoized = bits(memo.best_plan(&model, &cache, batch, p));
                    let scanned = bits(model.best_plan_in(&cache, batch, p));
                    let naive = bits(reference::best_plan_naive(&model, batch, p));
                    prop_assert_eq!(memoized, scanned, "memo vs scan on {}", p);
                    prop_assert_eq!(memoized, naive, "memo vs naive on {}", p);
                }
                let straddled = plans.iter().any(|p| m1 < p.parallel.tp && p.parallel.tp <= m2);
                prop_assert_eq!(
                    memo.len(),
                    1 + usize::from(straddled),
                    "smallest nodes {} and {} of {} GPUs", m1, m2, gpus
                );
            }
        }
    }
}

/// Memo rows keep models and batches apart: two models at two batches
/// share one memo and the same GPU counts, and every answer through a
/// resolved row equals the uncached scan bit for bit. The rows are
/// interleaved per placement, so a row that reached another's tables
/// would answer with the wrong plan set.
#[test]
fn memo_rows_match_scan_across_models_and_batches() {
    let cache = PlanSetCache::new();
    let models = [
        model_for(ModelSpec::gpt2_xl()),
        model_for(ModelSpec::llama2_7b()),
    ];
    let batches = [16u32, 64];
    let mut memo = BestPlanMemo::new();
    let rows: Vec<_> = models
        .iter()
        .flat_map(|m| batches.map(|b| (m, b)))
        .map(|(m, b)| (m, b, memo.row(m, b)))
        .collect();
    let layouts: [&[u32]; 8] = [&[1], &[2], &[1, 1], &[4], &[2, 2], &[8], &[4, 4], &[7, 1]];
    let bits = |r: Option<(ExecutionPlan, f64)>| r.map(|(p, t)| (p, t.to_bits()));
    let mut checked = 0;
    for layout in layouts {
        let gpus: u32 = layout.iter().sum();
        let packed_host = NodeShape::a800().packed_host_mem_gb(gpus);
        for cpus in [4u32, 48] {
            for frac in [0.1, 0.5, 1.0] {
                let placement = Placement {
                    gpus_per_node: layout.to_vec(),
                    cpus,
                    host_mem_gb: packed_host * frac,
                };
                // Twice: a miss, then a hit.
                for _ in 0..2 {
                    for &(model, batch, row) in &rows {
                        let memoized =
                            bits(memo.best_plan_at(row, model, &cache, batch, &placement));
                        let scanned = bits(model.best_plan_in(&cache, batch, &placement));
                        assert_eq!(
                            memoized, scanned,
                            "{} batch {batch} at {placement}",
                            model.spec.name
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert_eq!(checked, 8 * 2 * 3 * 2 * 4);
    for &(model, batch, row) in &rows {
        assert_eq!(memo.row(model, batch), row, "rows are stable across hits");
    }
}

/// Only ZeRO-Offload plans read `cpus`: every other cached plan scores
/// bit-identically with four more CPUs, on one node and across nodes. Rubick's
/// CPU reclaim stops at a non-offload plan because this holds. Offload
/// plans serve as the control: more CPUs must move some of them.
#[test]
fn only_offload_plans_read_cpus() {
    let shape = NodeShape::a800();
    let env = ClusterEnv::a800();
    let cache = PlanSetCache::new();
    let layouts: [&[u32]; 9] = [
        &[1],
        &[2],
        &[4],
        &[8],
        &[2, 2],
        &[4, 4],
        &[8, 4],
        &[8, 8],
        &[8, 8, 8, 8],
    ];
    let (mut checked, mut offload_moved) = (0, 0);
    for spec in ModelSpec::zoo() {
        let model = model_for(spec);
        for layout in layouts {
            let gpus: u32 = layout.iter().sum();
            for batch in [8u32, 16, 64] {
                for plan in cache.plans(&model.spec, gpus, batch, &shape, &env).iter() {
                    let tput = |cpus| {
                        let at = Placement {
                            gpus_per_node: layout.to_vec(),
                            cpus,
                            host_mem_gb: shape.packed_host_mem_gb(gpus),
                        };
                        let tput = model.params.throughput(&model.spec, plan, batch, &at, &env);
                        tput.to_bits()
                    };
                    for c in [1u32, 8, 48, 96] {
                        if plan.memory == MemoryMode::ZeroOffload {
                            offload_moved += usize::from(tput(c) != tput(c + 4));
                        } else {
                            assert_eq!(tput(c), tput(c + 4), "{plan:?} on {layout:?} at {c} cpus");
                            checked += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(
        checked > 0 && offload_moved > 0,
        "{checked} checked, {offload_moved} moved"
    );
}

/// More CPUs never lower a cached plan's score, and host memory above the
/// packed share changes no best plan, on one node and across nodes. Rubick
/// decides a frozen job's search on a GPU-full ledger without the walk
/// because of both: the best plan at the job's CPU cap and `host_mem_gb =
/// ∞` bounds every placement the walk can reach. A second set of
/// optimizer weights favours offload, so offload plans win some points.
#[test]
fn plan_scores_grow_with_cpus_and_unbounded_host_memory_is_the_packed_share() {
    let shape = NodeShape::a800();
    let env = ClusterEnv::a800();
    let cache = PlanSetCache::new();
    let layouts: [&[u32]; 9] = [
        &[1],
        &[2],
        &[4],
        &[8],
        &[2, 2],
        &[4, 4],
        &[8, 4],
        &[8, 8],
        &[8, 8, 8, 8],
    ];
    let cpu_steps = [1u32, 2, 4, 8, 16, 32, 48, 64, 96, 128, 192];
    let bits = |r: Option<(ExecutionPlan, f64)>| r.map(|(p, t)| (p, t.to_bits()));
    let (mut offload_rose, mut offload_best) = (0, 0);
    for spec in ModelSpec::zoo() {
        for k_opt in [None, Some((1.0, 0.05))] {
            let mut model = model_for(spec.clone());
            if let Some(k) = k_opt {
                (model.params.k_opt, model.params.k_opt_off) = k;
            }
            for layout in layouts {
                let gpus: u32 = layout.iter().sum();
                let at = |cpus, host_mem_gb| Placement {
                    gpus_per_node: layout.to_vec(),
                    cpus,
                    host_mem_gb,
                };
                let packed = shape.packed_host_mem_gb(gpus);
                for batch in [8u32, 16, 64] {
                    for plan in cache.plans(&model.spec, gpus, batch, &shape, &env).iter() {
                        let tput = |cpus| {
                            let p = at(cpus, packed);
                            model.params.throughput(&model.spec, plan, batch, &p, &env)
                        };
                        for pair in cpu_steps.windows(2) {
                            let (fewer, more) = (tput(pair[0]), tput(pair[1]));
                            assert!(
                                more >= fewer,
                                "{plan:?} on {layout:?}: {more} at {} < {fewer} at {} cpus",
                                pair[1],
                                pair[0]
                            );
                            if plan.memory == MemoryMode::ZeroOffload {
                                offload_rose += usize::from(more > fewer);
                            }
                        }
                    }
                    for cpus in [8u32, 96] {
                        let share = model.best_plan_in(&cache, batch, &at(cpus, packed));
                        let unbounded = model.best_plan_in(&cache, batch, &at(cpus, f64::INFINITY));
                        assert_eq!(
                            bits(unbounded),
                            bits(share),
                            "{} on {layout:?} at {cpus} cpus, batch {batch}",
                            model.spec.name
                        );
                        offload_best += usize::from(
                            share.is_some_and(|(p, _)| p.memory == MemoryMode::ZeroOffload),
                        );
                    }
                }
            }
        }
    }
    assert!(
        offload_rose > 0 && offload_best > 0,
        "{offload_rose} offload rises, {offload_best} offload winners"
    );
}

/// A placement without GPUs has no plan under any search mode, however
/// many CPUs and how much host memory it holds. Rubick decides a search
/// that cannot take a GPU on a GPU-full ledger without the walk because of
/// this: the walk still grabs free CPUs and memory, then finds no plan.
#[test]
fn a_placement_without_gpus_has_no_plan() {
    let cache = PlanSetCache::new();
    let mut memo = BestPlanMemo::new();
    let mut restricted = 0;
    for spec in ModelSpec::zoo() {
        let model = model_for(spec);
        for batch in [8u32, 16, 64] {
            for cpus in [1u32, 32, 192] {
                for host_mem_gb in [1.0, 800.0, f64::INFINITY] {
                    let at = Placement {
                        gpus_per_node: Vec::new(),
                        cpus,
                        host_mem_gb,
                    };
                    let name = &model.spec.name;
                    assert_eq!(model.best_plan_in(&cache, batch, &at), None, "{name}");
                    assert_eq!(memo.best_plan(&model, &cache, batch, &at), None, "{name}");
                    for gpus in [1u32, 2, 8, 16] {
                        let plans = cache.plans(&model.spec, gpus, batch, &model.shape, &model.env);
                        for plan in plans.iter() {
                            for search in [PlanSearch::DpScale(*plan), PlanSearch::Fixed(*plan)] {
                                assert_eq!(search.best_plan(&model, batch, &at), None, "{plan:?}");
                                restricted += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(restricted > 0, "no restricted search checked");
}

/// A memo miss whose class differs from a stored one only in `cpus`
/// scores only the ZeRO-Offload plans and merges with the stored best of
/// the rest, unless the layout was judged CPU-free. Walking `cpus` in
/// Rubick's 4-CPU steps over packed and spread layouts, at host memory
/// above and below the packed share, makes one full miss per layout and
/// host; each answer, and the hit that repeats it, equals the uncached
/// scan bit for bit. Two sets of optimizer weights make offload lose at
/// every CPU count in one and win from some count on in the other. Where
/// offload loses, every layout with a plan is judged CPU-free on its
/// first CPU step and stores no entry after its full miss; where no plan
/// fits there is no verdict, and every step stores a split entry. Where
/// offload wins, the layout keeps one entry per CPU step.
#[test]
fn split_misses_match_scan_over_cpu_steps() {
    let shape = NodeShape::a800();
    let env = ClusterEnv::a800();
    let cache = PlanSetCache::new();
    let bits = |r: Option<(ExecutionPlan, f64)>| r.map(|(p, t)| (p, t.to_bits()));
    let steps = (1..=129).step_by(4).count();
    let (mut checked, mut offload_won) = (0, 0);
    for (k_opt, total) in [(None, 140), (Some((0.5, 5.0)), 268)] {
        let mut model = model_for(ModelSpec::gpt2_xl());
        if let Some(k) = k_opt {
            (model.params.k_opt, model.params.k_opt_off) = k;
        }
        // One memo for all layouts and hosts, so a split or a verdict
        // that reused a class of another layout or host would answer
        // wrongly.
        let mut memo = BestPlanMemo::new();
        let row = memo.row(&model, 16);
        for layout in [vec![8u32], vec![4, 4], vec![16], vec![8, 8]] {
            let gpus: u32 = layout.iter().sum();
            let plans = cache.plans(&model.spec, gpus, 16, &shape, &env);
            assert!(
                plans.iter().any(|p| p.memory == MemoryMode::ZeroOffload),
                "no offload plan on {gpus} GPUs"
            );
            // Above the packed share; just below the largest host demand
            // in the set, which drops the plans that need the most; and
            // just below the smallest, which drops every plan.
            let estimator = MemoryEstimator::new(shape.gpu_mem_gb);
            let demands: Vec<f64> = plans
                .iter()
                .map(|p| estimator.host_mem_gb(&model.spec, p))
                .collect();
            let top = demands.iter().copied().fold(0.0, f64::max);
            let bottom = demands.iter().copied().fold(f64::INFINITY, f64::min);
            assert!(bottom < top && top <= shape.packed_host_mem_gb(gpus));
            let hosts = [
                shape.packed_host_mem_gb(gpus) * 1.5,
                top * 0.99,
                bottom * 0.99,
            ];
            for host_mem_gb in hosts {
                let before = memo.len();
                let (mut fits, mut won) = (false, false);
                for cpus in (1..=129).step_by(4) {
                    let at = Placement {
                        gpus_per_node: layout.clone(),
                        cpus,
                        host_mem_gb,
                    };
                    let scanned = bits(model.best_plan_in(&cache, 16, &at));
                    for _ in 0..2 {
                        let memoized = bits(memo.best_plan_at(row, &model, &cache, 16, &at));
                        assert_eq!(memoized, scanned, "{k_opt:?} at {at}");
                        checked += 1;
                    }
                    fits |= scanned.is_some();
                    won |= scanned.is_some_and(|(p, _)| p.memory == MemoryMode::ZeroOffload);
                }
                let stored = memo.len() - before;
                let layout = format!("{k_opt:?} on {layout:?} at {host_mem_gb} GB");
                if k_opt.is_none() {
                    assert!(!won, "offload wins {layout}");
                    let expected = if fits { 1 } else { steps };
                    assert_eq!(stored, expected, "entries {layout}");
                } else if won {
                    assert_eq!(stored, steps, "entries {layout}");
                }
                offload_won += usize::from(won);
            }
        }
        assert_eq!(memo.len(), total, "entries of {k_opt:?}");
    }
    assert_eq!(checked, 2 * 4 * 3 * steps * 2);
    assert!(offload_won > 0, "offload never wins");
}
