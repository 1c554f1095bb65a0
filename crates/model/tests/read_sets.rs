//! The read sets a fit's Jacobian relies on: Eq. 1 splits into
//! `T_cc + T_oo + k_const` bit for bit, and a parameter outside a sample's
//! [`IterTerms::read_mask`] never changes its predicted iteration time.
//! Swept over the whole zoo, every plan family and both packed and
//! spread placements.

use rubick_model::perf::IterTerms;
use rubick_model::prelude::*;

/// The fit's search box, in [`PerfParams::to_vec`] order.
const LO: [f64; 7] = [0.5, 1.0, 1e-4, 1e-3, 1.0, 1.0, 0.0];
const HI: [f64; 7] = [5.0, 32.0, 1.0, 100.0, 32.0, 32.0, 1.0];

/// One plan of every family: dp at 1 and more GPUs, GA, GC, ZeRO-DP,
/// ZeRO-3, ZeRO-Offload (alone, with GA and with GC) and TP/PP.
fn plans() -> Vec<ExecutionPlan> {
    vec![
        ExecutionPlan::dp(1),
        ExecutionPlan::dp(4),
        ExecutionPlan::dp(16),
        ExecutionPlan::dp(8).with_ga(4),
        ExecutionPlan::dp(1).with_ga(2),
        ExecutionPlan::dp(4).with_gc(),
        ExecutionPlan::zero_dp(8),
        ExecutionPlan::zero3(8),
        ExecutionPlan::zero3(1),
        ExecutionPlan::zero_offload(1),
        ExecutionPlan::zero_offload(4),
        ExecutionPlan::zero_offload(2).with_ga(2),
        ExecutionPlan::zero_offload(8).with_gc(),
        ExecutionPlan::three_d(1, 4, 1, 1),
        ExecutionPlan::three_d(1, 1, 4, 8),
        ExecutionPlan::three_d(2, 2, 2, 4),
    ]
}

/// Parameter sets the perturbations start from: the defaults, both
/// corners of the box and an interior point.
fn bases() -> Vec<PerfParams> {
    let gpu_flops = PerfParams::default().gpu_flops;
    vec![
        PerfParams::default(),
        PerfParams::from_vec(&LO, gpu_flops),
        PerfParams::from_vec(&HI, gpu_flops),
        PerfParams::from_vec(&[2.7, 5.5, 0.3, 12.0, 3.3, 17.0, 0.04], gpu_flops),
    ]
}

/// Every `(spec, plan, placement)` of the sweep, as Eq. 1 terms.
fn all_terms() -> Vec<(String, IterTerms)> {
    let env = ClusterEnv::a800();
    let shape = NodeShape::a800();
    let anchor = PerfParams::default();
    let mut out = Vec::new();
    for spec in ModelSpec::zoo() {
        for plan in plans() {
            let g = plan.gpus();
            let placements = [
                ("packed", Placement::packed(g, &shape)),
                ("spread", Placement::spread(g, 2, 6 * g, 100.0 * g as f64)),
            ];
            for (kind, placement) in placements {
                let terms = anchor.iter_terms(&spec, &plan, 64, &placement, &env);
                let label = format!("{} {} {kind}", spec.name, plan.label());
                out.push((label, terms));
            }
        }
    }
    out
}

#[test]
fn halves_sum_to_iter_time_bitwise() {
    for (label, terms) in all_terms() {
        for p in bases() {
            let whole = p.iter_time_from(&terms);
            let split = p.t_cc(&terms) + p.t_oo(&terms) + p.k_const;
            assert_eq!(whole.to_bits(), split.to_bits(), "{label}");
        }
    }
}

#[test]
fn parameters_outside_the_read_mask_change_nothing() {
    let mut excluded = 0;
    for (label, terms) in all_terms() {
        let mask = terms.read_mask();
        // Every sample excludes at least `k_sync` and `k_opt` (offload)
        // or the three offload parameters (otherwise).
        assert!(mask.count_ones() <= 5, "{label}: mask {mask:07b}");
        for base in bases() {
            let want = base.iter_time_from(&terms).to_bits();
            let x = base.to_vec();
            for j in (0..7).filter(|j| mask & (1 << j) == 0) {
                for v in [LO[j], HI[j], 0.5 * (LO[j] + HI[j]), 1.37 * x[j]] {
                    let mut y = x;
                    y[j] = v;
                    let moved = PerfParams::from_vec(&y, base.gpu_flops);
                    assert_eq!(
                        moved.iter_time_from(&terms).to_bits(),
                        want,
                        "{label}: parameter {j} = {v} is outside mask {mask:07b}"
                    );
                    excluded += 1;
                }
            }
        }
    }
    assert!(excluded > 0);
}

#[test]
fn read_mask_drops_the_unread_overlaps() {
    let env = ClusterEnv::a800();
    let shape = NodeShape::a800();
    let spec = ModelSpec::gpt2_xl();
    let mask = |plan: ExecutionPlan| {
        let placement = Placement::packed(plan.gpus(), &shape);
        PerfParams::default()
            .iter_terms(&spec, &plan, 64, &placement, &env)
            .read_mask()
    };
    // Bits: k_bwd, k_sync, k_opt, k_opt_off, k_off, k_swap, k_const.
    assert_eq!(mask(ExecutionPlan::dp(1)), 0b100_0101);
    assert_eq!(mask(ExecutionPlan::dp(4)), 0b100_0111);
    assert_eq!(mask(ExecutionPlan::zero_offload(1)), 0b110_1001);
    assert_eq!(mask(ExecutionPlan::zero_offload(4)), 0b111_1001);
}

/// The ZeRO-Offload terms of the sweep: only an offload plan reads
/// `k_opt_off` (bit 3 of the read mask).
fn offload_terms() -> Vec<(String, IterTerms)> {
    let out: Vec<_> = all_terms()
        .into_iter()
        .filter(|(_, terms)| terms.read_mask() & (1 << 3) != 0)
        .collect();
    assert!(!out.is_empty());
    out
}

#[test]
fn offload_summands_sum_to_t_oo_bitwise() {
    for (label, terms) in offload_terms() {
        for p in bases() {
            let split = p.t_sync_off(&terms) + p.t_opt_swap(&terms);
            assert_eq!(split.to_bits(), p.t_oo(&terms).to_bits(), "{label}");
        }
    }
}

#[test]
fn each_offload_summand_reads_only_its_parameters() {
    // `t_sync_off` reads `k_off` (4); `t_opt_swap` reads `k_opt_off` (3)
    // and `k_swap` (5). Moving one summand's parameters must leave the
    // other summand's bits alone.
    type Summand = fn(&PerfParams, &IterTerms) -> f64;
    let cases: [(usize, Summand); 3] = [
        (4, PerfParams::t_opt_swap),
        (3, PerfParams::t_sync_off),
        (5, PerfParams::t_sync_off),
    ];
    for (label, terms) in offload_terms() {
        for base in bases() {
            let x = base.to_vec();
            for (j, other) in cases {
                let want = other(&base, &terms).to_bits();
                for v in [LO[j], HI[j], 0.5 * (LO[j] + HI[j]), 1.37 * x[j]] {
                    let mut y = x;
                    y[j] = v;
                    let moved = PerfParams::from_vec(&y, base.gpu_flops);
                    assert_eq!(
                        other(&moved, &terms).to_bits(),
                        want,
                        "{label}: parameter {j} = {v}"
                    );
                }
            }
        }
    }
}
