//! **Ablations** — sensitivity of the reproduction's key design choices.
//! Not a paper table; these back the design decisions `DESIGN.md` records
//! and the knobs the paper only mentions in passing.
//!
//! 1. *Reconfiguration-penalty threshold* (paper: 0.97): JCT vs. churn.
//! 2. *Overlap modeling*: the p-norm `f_overlap^k` vs. forcing no overlap
//!    (`k = 1`) or perfect overlap (`k = 32`) — prediction error impact.
//! 3. *Synergy backfill depth*: quantifies the §2.2 head-of-line pathology
//!    that reconfigurability removes.
//! 4. *Cluster environment*: best-plan choices shift between the A800
//!    testbed (400/100/20 GB/s) and a commodity cloud (64/3/12 GB/s).
//!
//! Sections 1 and 3 run the default scenario (Table 4's base trace, seed
//! 2025), so the 0.97-threshold row equals Table 4's base/rubick row and
//! the window-16 row its base/synergy row.
//!
//! ```sh
//! cargo run --release -p rubick-bench --bin exp_ablations
//! ```

use rubick_bench::{hours, std_oracle, ZooBackend};
use rubick_core::{ModelRegistry, RubickConfig, RubickScheduler, SynergyScheduler};
use rubick_model::{enumerate_plans, ModelSpec, PerfParams, Placement};
use rubick_sim::{run_scenario, ScenarioSpec, Scheduler, SimReport};
use rubick_testbed::{profile_and_fit, TestbedOracle};
use std::sync::Arc;

/// Runs the default scenario through a policy variant.
fn run_default(
    zoo: &ZooBackend,
    build: impl Fn(Arc<ModelRegistry>) -> Box<dyn Scheduler> + Send + Sync + 'static,
) -> SimReport {
    run_scenario(&ScenarioSpec::default(), &zoo.variant(build))
        .expect("default scenario runs")
        .report
}

fn threshold_sweep(zoo: &ZooBackend) {
    println!("== 1. Reconfiguration-penalty threshold (paper default 0.97) ==");
    println!(
        "{:>9} | {:>10} | {:>10} | {:>9} | {:>12}",
        "threshold", "avg JCT(h)", "p99 JCT(h)", "reconfigs", "churn GPU-h%"
    );
    println!("{}", "-".repeat(62));
    for threshold in [0.90, 0.95, 0.97, 0.99] {
        let report = run_default(zoo, move |registry| {
            Box::new(RubickScheduler::with_config(
                registry,
                RubickConfig {
                    reconfig_threshold: threshold,
                    ..RubickConfig::default()
                },
            ))
        });
        println!(
            "{threshold:>9} | {:>10.2} | {:>10.2} | {:>9} | {:>11.2}%",
            hours(report.avg_jct()),
            hours(report.p99_jct()),
            report.jobs.iter().map(|j| j.reconfig_count).sum::<u32>(),
            report.reconfig_share() * 100.0,
        );
    }
    println!();
}

fn overlap_ablation(oracle: &TestbedOracle) {
    println!("== 2. Overlap modeling: fitted k vs. forced extremes (GPT-2) ==");
    let spec = ModelSpec::gpt2_xl();
    let batch = spec.default_batch;
    let (model, _) = profile_and_fit(oracle, &spec, batch).expect("profiling");
    let variants: Vec<(&str, PerfParams)> = vec![
        ("fitted", model.params),
        (
            "no overlap (k=1)",
            PerfParams {
                k_sync: 1.0,
                k_off: 1.0,
                k_swap: 1.0,
                ..model.params
            },
        ),
        (
            "perfect overlap (k=32)",
            PerfParams {
                k_sync: 32.0,
                k_off: 32.0,
                k_swap: 32.0,
                ..model.params
            },
        ),
    ];
    println!(
        "{:<24} | {:>10} | {:>10}",
        "overlap model", "avg err", "max err"
    );
    println!("{}", "-".repeat(50));
    // Evaluate on *cross-node* DP-family placements, where the gradient
    // synchronization term is large enough that its overlap with the
    // backward pass decides the prediction (on one NVLink node DP sync is
    // nearly free and the exponent barely matters).
    for (name, params) in variants {
        let mut errors = Vec::new();
        for (g, per_node) in [(8u32, 2u32), (8, 4), (16, 4), (16, 8), (32, 8)] {
            let placement = Placement::spread(g, per_node, g * 12, g as f64 * 200.0);
            for plan in enumerate_plans(&spec, g, batch, oracle.shape(), oracle.env()) {
                if plan.parallel.is_model_parallel() {
                    continue; // isolate the DP-sync overlap term
                }
                let Some(actual) = oracle.throughput(&spec, &plan, batch, &placement) else {
                    continue;
                };
                let pred = params.throughput(&spec, &plan, batch, &placement, oracle.env());
                errors.push((pred - actual).abs() / actual);
            }
        }
        let avg = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
        let max = errors.iter().fold(0.0f64, |a, &b| a.max(b));
        println!("{name:<24} | {:>9.2}% | {:>9.2}%", avg * 100.0, max * 100.0);
    }
    println!();
}

fn backfill_sweep(zoo: &ZooBackend) {
    println!("== 3. Synergy backfill depth (head-of-line blocking, section 2.2) ==");
    println!(
        "{:>7} | {:>10} | {:>12}",
        "window", "avg JCT(h)", "makespan(h)"
    );
    println!("{}", "-".repeat(36));
    for window in [1usize, 4, 16, 64, 1024] {
        let report = run_default(zoo, move |registry| {
            Box::new(SynergyScheduler::new(registry).with_backfill_window(window))
        });
        println!(
            "{window:>7} | {:>10.2} | {:>12.2}",
            hours(report.avg_jct()),
            hours(report.makespan)
        );
    }
    println!();
}

fn environment_shift(oracle_a800: &TestbedOracle) {
    println!("== 4. Best plans: A800 testbed vs. commodity cloud (3 GB/s inter-node) ==");
    let commodity = TestbedOracle::with_env(
        oracle_a800.seed(),
        rubick_model::ClusterEnv::commodity(),
        *oracle_a800.shape(),
    );
    println!(
        "{:<12} | {:>5} | {:<26} | {:<26}",
        "model", "GPUs", "A800 best plan", "commodity best plan"
    );
    println!("{}", "-".repeat(80));
    for spec in [ModelSpec::gpt2_xl(), ModelSpec::llama2_7b()] {
        let batch = spec.default_batch;
        for gpus in [8u32, 16, 32] {
            let placement = Placement::spread(gpus, 8, gpus * 12, gpus as f64 * 200.0);
            let a = oracle_a800
                .best_plan(&spec, batch, &placement)
                .map(|(p, _)| p.label())
                .unwrap_or_else(|| "-".into());
            let c = commodity
                .best_plan(&spec, batch, &placement)
                .map(|(p, _)| p.label())
                .unwrap_or_else(|| "-".into());
            println!("{:<12} | {gpus:>5} | {a:<26} | {c:<26}", spec.name);
        }
    }
    println!(
        "\nOn slow inter-node links, cross-node DP synchronization becomes the\n\
         bottleneck, shifting best plans toward GA (fewer syncs per sample)\n\
         and deeper in-node model parallelism — the environment constants\n\
         (B_intra/B_inter/B_pcie, Table 1) do real work in the model."
    );
}

fn main() {
    let oracle = std_oracle();
    let zoo = ZooBackend::prepare([ScenarioSpec::default().seed]).expect("zoo profiling");
    println!("Rubick reproduction — design-choice ablations\n");
    threshold_sweep(&zoo);
    overlap_ablation(&oracle);
    backfill_sweep(&zoo);
    environment_shift(&oracle);
}
