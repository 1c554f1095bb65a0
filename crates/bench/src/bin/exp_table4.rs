//! **Table 4** — the 64-GPU cluster experiments, plus the §7.3 system
//! overheads.
//!
//! Traces (12 h, 406 jobs down-sampled Philly-style):
//! * **Base** — random feasible initial plans: Rubick vs. Sia vs. Synergy,
//!   plus the break-down ablations Rubick-E / Rubick-R / Rubick-N;
//! * **BP** — best initial plans: Rubick vs. Sia vs. Synergy;
//! * **MT** — two tenants (guaranteed vs. best-effort): Rubick vs. AntMan,
//!   with per-class JCT and SLA attainment.
//!
//! ```sh
//! cargo run --release -p rubick-bench --bin exp_table4
//! ```

use rubick_bench::{build_registry, hours, run_cluster_experiment, std_oracle, with_ratio};
use rubick_core::{
    rubick_e, rubick_n, rubick_r, AntManScheduler, RubickScheduler, SiaScheduler, SynergyScheduler,
};
use rubick_sim::{JobClass, Scheduler, SimReport};
use rubick_trace::{best_plan_trace, generate_base, multi_tenant_trace, TraceConfig};
use std::sync::Arc;

/// A labelled job filter selecting one row class of the printed table.
type ClassFilter = (&'static str, Box<dyn Fn(&rubick_sim::JobRecord) -> bool>);

fn main() {
    let oracle = std_oracle();
    eprintln!("[table4] profiling the 7-model zoo...");
    let registry = build_registry(&oracle);
    let config = TraceConfig::default(); // 406 jobs / 12 h / 64 GPUs

    let mut summaries: Vec<(String, String, SimReport)> = Vec::new();

    // ---- Base trace ------------------------------------------------------
    eprintln!("[table4] generating base trace...");
    let base = generate_base(&config, &oracle);
    eprintln!("[table4] base trace: {} jobs", base.len());
    let base_scheds: Vec<Box<dyn Scheduler>> = vec![
        Box::new(RubickScheduler::new(Arc::clone(&registry))),
        Box::new(SiaScheduler::new(Arc::clone(&registry))),
        Box::new(SynergyScheduler::new(Arc::clone(&registry))),
        Box::new(rubick_e(Arc::clone(&registry))),
        Box::new(rubick_r(Arc::clone(&registry))),
        Box::new(rubick_n(Arc::clone(&registry))),
    ];
    for sched in base_scheds {
        let name = sched.name().to_string();
        eprintln!("[table4] base trace / {name}...");
        let report = run_cluster_experiment(&oracle, sched, base.clone(), vec![]);
        summaries.push(("Base".into(), name, report));
    }

    // ---- BP trace --------------------------------------------------------
    eprintln!("[table4] generating best-plan trace...");
    let bp = best_plan_trace(&config, &oracle);
    let bp_scheds: Vec<Box<dyn Scheduler>> = vec![
        Box::new(RubickScheduler::new(Arc::clone(&registry))),
        Box::new(SiaScheduler::new(Arc::clone(&registry))),
        Box::new(SynergyScheduler::new(Arc::clone(&registry))),
    ];
    for sched in bp_scheds {
        let name = sched.name().to_string();
        eprintln!("[table4] BP trace / {name}...");
        let report = run_cluster_experiment(&oracle, sched, bp.clone(), vec![]);
        summaries.push(("BP".into(), name, report));
    }

    // ---- MT trace --------------------------------------------------------
    eprintln!("[table4] generating multi-tenant trace...");
    let (mt, tenants) = multi_tenant_trace(&config, &oracle);
    let mt_scheds: Vec<Box<dyn Scheduler>> = vec![
        Box::new(RubickScheduler::new(Arc::clone(&registry))),
        Box::new(AntManScheduler::new()),
    ];
    for sched in mt_scheds {
        let name = sched.name().to_string();
        eprintln!("[table4] MT trace / {name}...");
        let report = run_cluster_experiment(&oracle, sched, mt.clone(), tenants.clone());
        summaries.push(("MT".into(), name, report));
    }

    // ---- print -----------------------------------------------------------
    println!("\nTable 4: 64-GPU cluster experiments (JCT in hours; ratios vs. Rubick per trace)\n");
    println!(
        "{:<6} | {:<10} | {:<6} | {:>14} | {:>14} | {:>12} | {:>9} | {:>8}",
        "trace",
        "scheduler",
        "class",
        "avg JCT (h)",
        "P99 JCT (h)",
        "makespan (h)",
        "SLA",
        "finished"
    );
    println!("{}", "-".repeat(102));
    for trace_name in ["Base", "BP", "MT"] {
        let rubick_ref = summaries
            .iter()
            .find(|(t, s, _)| t == trace_name && s == "rubick")
            .map(|(_, _, r)| (r.avg_jct(), r.p99_jct()))
            .unwrap_or((0.0, 0.0));
        for (t, name, report) in summaries.iter().filter(|(t, _, _)| t == trace_name) {
            let rows: Vec<ClassFilter> = if t == "MT" {
                vec![
                    ("all", Box::new(|_: &rubick_sim::JobRecord| true)),
                    (
                        "guar.",
                        Box::new(|j: &rubick_sim::JobRecord| j.class == JobClass::Guaranteed),
                    ),
                    (
                        "BE",
                        Box::new(|j: &rubick_sim::JobRecord| j.class == JobClass::BestEffort),
                    ),
                ]
            } else {
                vec![("all", Box::new(|_: &rubick_sim::JobRecord| true))]
            };
            for (class_label, filt) in rows {
                let avg = hours(report.avg_jct_where(&filt));
                let p99 = hours(report.p99_jct_where(&filt));
                let sla = if class_label == "guar." {
                    format!("{:.0}%", report.sla_attainment() * 100.0)
                } else {
                    "-".into()
                };
                println!(
                    "{t:<6} | {name:<10} | {class_label:<6} | {:>14} | {:>14} | {:>12.2} | {sla:>9} | {:>8}",
                    with_ratio(avg, hours(rubick_ref.0)),
                    with_ratio(p99, hours(rubick_ref.1)),
                    hours(report.makespan),
                    report.jobs.len(),
                );
            }
        }
        println!("{}", "-".repeat(102));
    }

    // ---- §7.3 system overheads --------------------------------------------
    println!("\nSystem overheads (Rubick on the base trace):");
    if let Some((_, _, r)) = summaries
        .iter()
        .find(|(t, s, _)| t == "Base" && s == "rubick")
    {
        println!(
            "  avg reconfiguration time: {:.0} s per reconfiguration (paper: 78 s)",
            r.avg_reconfig_time()
        );
        println!(
            "  total reconfiguration share of GPU-hours: {:.2}% (paper: ~1%)",
            r.reconfig_share() * 100.0
        );
        println!(
            "  unfinished jobs: {}; infeasible assignments: {}; rounds: {}",
            r.unfinished.len(),
            r.infeasible_assignments,
            r.rounds
        );
    }
    println!(
        "  profiling: {:.0} s total across 7 model types ({:.0} s/model; paper: 210 s/model)",
        registry.profiling_seconds,
        registry.profiling_seconds / 7.0
    );
}
