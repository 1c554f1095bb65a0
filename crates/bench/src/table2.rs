//! **Table 2** — performance-model prediction errors.
//!
//! For each of the seven evaluation models: fit the performance model from
//! the profiler's sampled runs, then predict *unseen* configurations (4 plan
//! families × up to 5 resource allocations/placements) and measure the
//! average and maximum relative error against the testbed's throughput.
//! The `exp_table2` binary prints the table; the tests below pin its
//! accuracy.

use rubick_model::{
    enumerate_plans, ExecutionPlan, ModelError, ModelSpec, Placement, PlanKind, ThroughputModel,
};
use rubick_testbed::{profile_and_fit, TestbedOracle};

/// A named plan family (a column pair of Table 2).
struct Family {
    name: &'static str,
    matches: fn(&ExecutionPlan) -> bool,
}

const SMALL_MODEL_FAMILIES: [Family; 4] = [
    Family {
        name: "DP",
        matches: |p| p.kind() == PlanKind::DataParallel && !p.gc && p.ga_steps == 1,
    },
    Family {
        name: "GC",
        matches: |p| p.kind() == PlanKind::DataParallel && p.gc,
    },
    Family {
        name: "ZeRO-DP+GA",
        matches: |p| p.kind() == PlanKind::ZeroDp && p.ga_steps > 1,
    },
    Family {
        name: "ZeRO-Offload",
        matches: |p| p.kind() == PlanKind::ZeroOffload && !p.gc,
    },
];

const LARGE_MODEL_FAMILIES: [Family; 4] = [
    Family {
        name: "TP+PP",
        matches: |p| p.parallel.dp == 1 && (p.parallel.tp > 1 || p.parallel.pp > 1) && !p.gc,
    },
    Family {
        name: "DP+TP+PP",
        matches: |p| p.parallel.dp > 1 && p.parallel.is_model_parallel(),
    },
    Family {
        name: "ZeRO-DP+GA",
        matches: |p| p.kind() == PlanKind::ZeroDp && p.ga_steps > 1,
    },
    Family {
        name: "ZeRO-Offload+GC",
        matches: |p| p.kind() == PlanKind::ZeroOffload && p.gc,
    },
];

/// One cell of Table 2: a plan family's relative prediction errors.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyError {
    /// The plan family's column name.
    pub family: &'static str,
    /// `(avg, max)` relative error over up to 5 unseen configurations, or
    /// `None` when the family is infeasible for the model ("/").
    pub errors: Option<(f64, f64)>,
}

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// The model's name.
    pub model: String,
    /// The row's four family cells, or the profiling/fitting failure.
    pub cells: Result<Vec<FamilyError>, ModelError>,
}

/// Evaluates one family: `(avg, max)` relative errors over up to 5 unseen
/// configurations, or `None` when the family is infeasible.
fn eval_family(
    oracle: &TestbedOracle,
    model: &ThroughputModel,
    spec: &ModelSpec,
    gpu_range: &[u32],
    family: &Family,
    training: &[(ExecutionPlan, Placement)],
) -> Option<(f64, f64)> {
    let batch = spec.default_batch;
    let mut errors = Vec::new();
    for &g in gpu_range {
        if errors.len() >= 5 {
            break;
        }
        let placement = Placement::packed(g, oracle.shape());
        let plan = enumerate_plans(spec, g, batch, oracle.shape(), oracle.env())
            .into_iter()
            .find(|p| (family.matches)(p));
        let Some(plan) = plan else { continue };
        if training
            .iter()
            .any(|(tp, tpl)| *tp == plan && *tpl == placement)
        {
            continue; // unseen configurations only
        }
        let Some(actual) = oracle.throughput(spec, &plan, batch, &placement) else {
            continue;
        };
        let Ok(pred) = model.throughput(&plan, batch, &placement) else {
            continue;
        };
        errors.push((pred - actual).abs() / actual);
    }
    if errors.is_empty() {
        return None;
    }
    let avg = errors.iter().sum::<f64>() / errors.len() as f64;
    let max = errors.iter().fold(0.0f64, |a, &b| a.max(b));
    Some((avg, max))
}

/// Computes Table 2 on `oracle`: one row per evaluation model, in the
/// paper's order, each fitted at the model's default batch size.
pub fn table2(oracle: &TestbedOracle) -> Vec<Table2Row> {
    let rows: [(ModelSpec, &[u32], &[Family; 4]); 7] = [
        (
            ModelSpec::vit_base(),
            &[1, 2, 3, 4, 6, 8],
            &SMALL_MODEL_FAMILIES,
        ),
        (
            ModelSpec::roberta_large(),
            &[1, 2, 3, 4, 6, 8],
            &SMALL_MODEL_FAMILIES,
        ),
        (
            ModelSpec::bert_large(),
            &[1, 2, 3, 4, 6, 8],
            &SMALL_MODEL_FAMILIES,
        ),
        (
            ModelSpec::t5_1b(),
            &[2, 4, 8, 12, 16, 24, 32],
            &LARGE_MODEL_FAMILIES,
        ),
        (
            ModelSpec::gpt2_xl(),
            &[2, 4, 8, 12, 16, 24, 30],
            &LARGE_MODEL_FAMILIES,
        ),
        (
            ModelSpec::llama2_7b(),
            &[1, 4, 8, 16, 32, 64],
            &LARGE_MODEL_FAMILIES,
        ),
        (
            ModelSpec::llama_30b(),
            &[12, 16, 24, 32, 48, 64],
            &LARGE_MODEL_FAMILIES,
        ),
    ];
    rows.into_iter()
        .map(|(spec, gpu_range, families)| {
            let cells =
                profile_and_fit(oracle, &spec, spec.default_batch).map(|(model, report)| {
                    let training: Vec<(ExecutionPlan, Placement)> = report
                        .points
                        .iter()
                        .map(|p| (p.plan, p.placement.clone()))
                        .collect();
                    families
                        .iter()
                        .map(|family| FamilyError {
                            family: family.name,
                            errors: eval_family(
                                oracle, &model, &spec, gpu_range, family, &training,
                            ),
                        })
                        .collect()
                });
            Table2Row {
                model: spec.name.to_string(),
                cells,
            }
        })
        .collect()
}

/// The overall mean of the feasible family-average errors (the headline
/// number under Table 2).
pub fn overall_mean(rows: &[Table2Row]) -> f64 {
    let avgs: Vec<f64> = rows
        .iter()
        .filter_map(|r| r.cells.as_ref().ok())
        .flatten()
        .filter_map(|c| c.errors.map(|(avg, _)| avg))
        .collect();
    avgs.iter().sum::<f64>() / avgs.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::std_oracle;

    /// Family-average errors (%) on the standard testbed as printed by the
    /// bounded Nelder–Mead profile fit that preceded the Gauss–Newton one;
    /// `None` marks an infeasible family.
    const RECORDED: [[Option<f64>; 4]; 7] = [
        [Some(3.52), Some(5.16), Some(2.60), Some(1.64)],
        [Some(4.79), Some(7.08), Some(3.53), Some(1.65)],
        [Some(6.30), Some(5.19), Some(3.65), Some(1.40)],
        [Some(6.22), Some(6.19), Some(4.58), Some(2.49)],
        [Some(4.98), Some(3.76), Some(5.61), Some(0.89)],
        [Some(4.74), Some(4.38), Some(4.95), Some(6.69)],
        [Some(8.79), Some(1.26), Some(7.42), None],
    ];

    #[test]
    fn table2_accuracy_holds() {
        let rows = table2(&std_oracle());
        assert_eq!(rows.len(), RECORDED.len());
        for (row, recorded) in rows.iter().zip(RECORDED) {
            let cells = row.cells.as_ref().expect("every model profiles");
            for (cell, want) in cells.iter().zip(recorded) {
                let got = cell.errors.map(|(avg, _)| avg * 100.0);
                match (got, want) {
                    (Some(got), Some(want)) => assert!(
                        got <= want + 1.0,
                        "{} {}: {got:.2}% is more than 1 pp above {want:.2}%",
                        row.model,
                        cell.family
                    ),
                    (None, None) => {}
                    _ => panic!("{} {}: feasibility changed", row.model, cell.family),
                }
            }
        }
        let overall = overall_mean(&rows) * 100.0;
        assert!(overall <= 4.5, "overall mean {overall:.2}% exceeds 4.5%");
    }
}
