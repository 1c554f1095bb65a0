//! `rubick trace` — generate a synthetic workload trace and summarize it
//! (or dump it as CSV for external tools).

use super::{oracle_from, scenario_spec_from, CliError};
use crate::args::Args;
use rubick_bench::workload;
use std::collections::BTreeMap;

/// Executes the `trace` subcommand.
pub fn execute(args: &Args) -> Result<(), CliError> {
    args.allow(&["jobs", "load", "seed", "csv"])?;
    let oracle = oracle_from(args)?;
    let spec = scenario_spec_from(args)?;
    let (jobs, _) = workload(&spec, &oracle);

    if args.flag("csv") {
        println!("id,submit_s,model,gpus,cpus,mem_gb,batch,target_batches,initial_plan");
        for j in &jobs {
            println!(
                "{},{:.1},{},{},{},{:.0},{},{},{}",
                j.id,
                j.submit_time,
                j.model.name,
                j.requested.gpus,
                j.requested.cpus,
                j.requested.mem_gb,
                j.global_batch,
                j.target_batches,
                j.initial_plan.label()
            );
        }
        return Ok(());
    }

    let span_h = spec.duration_hours;
    println!(
        "trace: {} jobs over {span_h:.0} h (seed {}, load {:.2})\n",
        jobs.len(),
        spec.seed,
        spec.load
    );

    let mut by_model: BTreeMap<&str, (usize, u64)> = BTreeMap::new();
    let mut by_gpus: BTreeMap<u32, usize> = BTreeMap::new();
    let mut by_plan_kind: BTreeMap<String, usize> = BTreeMap::new();
    for j in &jobs {
        let e = by_model.entry(j.model.name.as_str()).or_insert((0, 0));
        e.0 += 1;
        e.1 += j.target_batches;
        *by_gpus.entry(j.requested.gpus).or_insert(0) += 1;
        *by_plan_kind
            .entry(j.initial_plan.kind().to_string())
            .or_insert(0) += 1;
    }
    println!("{:<14} | {:>5} | {:>14}", "model", "jobs", "total batches");
    println!("{}", "-".repeat(40));
    for (name, (count, batches)) in &by_model {
        println!("{name:<14} | {count:>5} | {batches:>14}");
    }
    println!("\nGPU request histogram:");
    for (g, count) in &by_gpus {
        println!(
            "  {g:>3} GPUs: {:<60} {count}",
            "#".repeat((*count).min(60))
        );
    }
    println!("\ninitial plan kinds:");
    for (kind, count) in &by_plan_kind {
        println!("  {kind:<14} {count}");
    }
    Ok(())
}
