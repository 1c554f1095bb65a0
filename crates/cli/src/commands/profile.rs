//! `rubick profile` — profile a model type against the testbed and show
//! the fitted performance model with its prediction quality.

use super::{model_from, oracle_from, CliError};
use crate::args::Args;
use rubick_model::{enumerate_plans, Placement};
use rubick_testbed::profile_and_fit;

/// Executes the `profile` subcommand.
pub fn execute(args: &Args) -> Result<(), CliError> {
    args.allow(&["model", "seed", "csv"])?;
    let oracle = oracle_from(args)?;
    let spec = model_from(args)?;
    let batch = spec.default_batch;
    let (model, report) = profile_and_fit(&oracle, &spec, batch)?;

    if args.flag("csv") {
        println!("param,value");
        let p = model.params;
        println!("k_bwd,{}", p.k_bwd);
        println!("k_sync,{}", p.k_sync);
        println!("k_opt,{}", p.k_opt);
        println!("k_opt_off,{}", p.k_opt_off);
        println!("k_off,{}", p.k_off);
        println!("k_swap,{}", p.k_swap);
        println!("k_const,{}", p.k_const);
        println!("gpu_flops,{}", p.gpu_flops);
        return Ok(());
    }

    println!("== {} (global batch {batch}) ==\n", spec);
    println!(
        "profiled {} sample runs ({:.0} simulated seconds):",
        report.points.len(),
        report.wall_seconds
    );
    for point in &report.points {
        println!(
            "  {:<28} on {:<18} -> {:>8.3} s/iter",
            point.plan.label(),
            point.placement.to_string(),
            point.iter_time
        );
    }
    // A parameter no profiled sample reads keeps whatever the winning fit
    // start drew, so it is not shown as a fitted value.
    let read = report.points.iter().fold(0u8, |mask, pt| {
        let terms = model.params.iter_terms(
            &spec,
            &pt.plan,
            pt.global_batch,
            &pt.placement,
            oracle.env(),
        );
        mask | terms.read_mask()
    });
    let p = model.params;
    let rows = [
        ("k_bwd", p.k_bwd, 3, "backward/forward ratio"),
        ("k_sync", p.k_sync, 3, "bwd/DP-sync overlap exponent"),
        ("k_opt", p.k_opt, 4, "GPU optimizer s per B params"),
        ("k_opt_off", p.k_opt_off, 3, "CPU optimizer efficiency"),
        ("k_off", p.k_off, 3, "sync/offload overlap exponent"),
        ("k_swap", p.k_swap, 3, "opt/swap overlap exponent"),
        ("k_const", p.k_const, 4, "constant overhead, s"),
    ];
    println!("\nfitted parameters (Table 1):");
    for (j, (name, value, prec, what)) in rows.into_iter().enumerate() {
        if read & (1 << j) == 0 {
            println!(
                "  {name:<9} = {:>8}   not identified (no profiled sample reads it)",
                "-"
            );
        } else {
            println!("  {name:<9} = {value:>8.prec$}   ({what})");
        }
    }
    println!(
        "  gpu_flops = {:>8.2e} (profiled effective FLOP/s)",
        p.gpu_flops
    );

    // Holdout check: predictions vs. the oracle on unseen configurations.
    let mut errors = Vec::new();
    for g in [1u32, 2, 4, 8, 16] {
        let placement = Placement::packed(g, oracle.shape());
        for plan in enumerate_plans(&spec, g, batch, oracle.shape(), oracle.env()) {
            if report
                .points
                .iter()
                .any(|pt| pt.plan == plan && pt.placement == placement)
            {
                continue;
            }
            let (Some(actual), Ok(pred)) = (
                oracle.throughput(&spec, &plan, batch, &placement),
                model.throughput(&plan, batch, &placement),
            ) else {
                continue;
            };
            errors.push((pred - actual).abs() / actual);
        }
    }
    if !errors.is_empty() {
        let avg = errors.iter().sum::<f64>() / errors.len() as f64;
        let max = errors.iter().fold(0.0f64, |a, &b| a.max(b));
        println!(
            "\nprediction quality on {} unseen configurations: avg {:.2}%, max {:.2}%",
            errors.len(),
            avg * 100.0,
            max * 100.0
        );
    }
    Ok(())
}
