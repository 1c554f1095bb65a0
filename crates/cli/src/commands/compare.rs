//! `rubick compare` — every scheduler on the same trace, side by side.
//!
//! The schedulers are independent simulations over the same spec, so they
//! run concurrently: one scoped thread per scheduler, each driving the
//! shared scenario harness ([`rubick_sim::run_scenario_with`]). The model
//! zoo is profiled **once** on the main thread (inside
//! [`ZooBackend::prepare`]); each scheduler construction then gets its
//! own deep copy via
//! [`ModelRegistry::clone_fitted`](rubick_core::ModelRegistry::clone_fitted),
//! with its own empty curve cache, so neither online refits nor curves
//! are shared between threads. Only the process-wide
//! [`PlanSetCache`](rubick_model::PlanSetCache) is. Output order is fixed:
//! rows are printed from the joined results in `SCHEDULERS` order, as a
//! sequential loop would print them.

use super::{chaos_from, scenario_spec_from, CliError};
use crate::args::Args;
use crate::output::{compare_header, compare_row, Logger};
use rubick_bench::ZooBackend;
use rubick_obs::FaultMetricsSink;
use rubick_sim::{run_scenario_with, ScenarioOutcome};

const SCHEDULERS: [&str; 7] = [
    "rubick", "rubick-e", "rubick-r", "rubick-n", "sia", "synergy", "antman",
];

/// Executes the `compare` subcommand.
pub fn execute(args: &Args) -> Result<(), CliError> {
    args.allow(&[
        "trace",
        "jobs",
        "load",
        "large-frac",
        "seed",
        "csv",
        "log-level",
        "chaos",
        "chaos-seed",
        "refit",
        "refit-threshold",
    ])?;
    let log = Logger::from_args(args)?;
    let base_spec = scenario_spec_from(args)?;
    let chaos = chaos_from(args, base_spec.nodes, base_spec.engine_config().max_time)?;
    // One profiling pass, shared read-only; each thread deep-copies its
    // registry inside `ZooBackend::scheduler`.
    let backend = ZooBackend::prepare([base_spec.seed])?;
    log.info(&format!(
        "comparing {} schedulers on {} jobs ({} threads)...",
        SCHEDULERS.len(),
        base_spec.jobs,
        SCHEDULERS.len()
    ));

    // One simulation per thread; results come back in `SCHEDULERS` order
    // because the handles are joined in spawn order.
    let backend = &backend;
    let base_spec = &base_spec;
    let chaos = &chaos;
    let results: Vec<Result<ScenarioOutcome, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = SCHEDULERS
            .iter()
            .map(|name| {
                s.spawn(move || {
                    let spec = rubick_sim::ScenarioSpec {
                        scheduler: (*name).to_string(),
                        ..base_spec.clone()
                    };
                    run_scenario_with(&spec, backend, chaos.clone(), None)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("comparison thread panicked"))
            .collect()
    });

    let csv = args.flag("csv");
    println!("{}", compare_header(csv));
    let mut rubick_avg = None;
    let mut fault_rows = Vec::new();
    for (name, result) in SCHEDULERS.iter().zip(results) {
        let outcome = result.map_err(CliError::from)?;
        log.debug(&format!("{name}: {} rounds", outcome.report.rounds));
        if *name == "rubick" {
            rubick_avg = Some(outcome.report.avg_jct());
        }
        println!("{}", compare_row(name, &outcome.report, rubick_avg, csv));
        if let Some(m) = outcome.faults {
            fault_rows.push((*name, m));
        }
    }
    if !fault_rows.is_empty() {
        println!("{}", fault_summary_block(&fault_rows, csv));
    }
    Ok(())
}

/// Per-scheduler goodput lost to faults, printed after the main table
/// when `--chaos` is active.
fn fault_summary_block(rows: &[(&str, FaultMetricsSink)], csv: bool) -> String {
    let mut s = String::new();
    if csv {
        s.push_str("scheduler,fault_evictions,restarts,mean_resched_s,goodput_lost_gpu_h");
        for (name, m) in rows {
            s.push_str(&format!(
                "\n{name},{},{},{:.1},{:.3}",
                m.fault_evictions,
                m.restarts,
                m.mean_time_to_reschedule(),
                m.goodput_lost_gpu_seconds / 3600.0
            ));
        }
    } else {
        s.push_str("\nfault injection (goodput lost to faults per scheduler):");
        for (name, m) in rows {
            s.push_str(&format!(
                "\n  {name:<10} evictions {:>3}  restarts {:>3}  mean resched {:>7.1} s  lost {:>8.3} GPU-h",
                m.fault_evictions,
                m.restarts,
                m.mean_time_to_reschedule(),
                m.goodput_lost_gpu_seconds / 3600.0
            ));
        }
    }
    s
}
