//! **Table 4** — the 64-GPU cluster experiments, plus the §7.3 system
//! overheads.
//!
//! Runs the committed `examples/sweeps/table4.toml` (12 h, 406 jobs
//! down-sampled Philly-style, seed 2025), so every row matches
//! `rubick sweep examples/sweeps/table4.toml`:
//! * **Base** — random feasible initial plans: Rubick vs. Sia vs. Synergy,
//!   plus the break-down ablations Rubick-E / Rubick-R / Rubick-N;
//! * **BP** — best initial plans: Rubick vs. Sia vs. Synergy;
//! * **MT** — two tenants (guaranteed vs. best-effort): Rubick vs. AntMan,
//!   with per-class JCT and SLA attainment.
//!
//! ```sh
//! cargo run --release -p rubick-bench --bin exp_table4
//! ```

use rubick_bench::{hours, run_sweep, with_ratio, EXPERIMENT_SEED};
use rubick_sim::{JobClass, JobRecord, ScenarioOutcome, TraceKind};

/// One row class of the printed table: a label and the jobs it selects.
type ClassFilter = (&'static str, fn(&JobRecord) -> bool);

const ALL: ClassFilter = ("all", |_| true);
const MT_CLASSES: [ClassFilter; 3] = [
    ALL,
    ("guar.", |j| j.class == JobClass::Guaranteed),
    ("BE", |j| j.class == JobClass::BestEffort),
];

fn trace_label(kind: TraceKind) -> &'static str {
    match kind {
        TraceKind::Base => "Base",
        TraceKind::Bp => "BP",
        TraceKind::Mt => "MT",
    }
}

fn main() {
    eprintln!("[table4] running examples/sweeps/table4.toml...");
    let (backend, outcomes) = run_sweep(include_str!("../../../../examples/sweeps/table4.toml"));

    println!("\nTable 4: 64-GPU cluster experiments (JCT in hours; ratios vs. Rubick per trace and class)\n");
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
    for kind in [TraceKind::Base, TraceKind::Bp, TraceKind::Mt] {
        let classes: &[ClassFilter] = if kind == TraceKind::Mt {
            &MT_CLASSES
        } else {
            &[ALL]
        };
        let cells: Vec<&ScenarioOutcome> =
            outcomes.iter().filter(|o| o.spec.trace == kind).collect();
        let rubick = cells
            .iter()
            .find(|o| o.spec.scheduler == "rubick")
            .map(|o| &o.report);
        for outcome in &cells {
            let report = &outcome.report;
            for &(class_label, filt) in classes {
                // Each class row is compared against Rubick's row of the
                // same class.
                let (ref_avg, ref_p99) = rubick.map_or((0.0, 0.0), |r| {
                    (r.avg_jct_where(filt), r.p99_jct_where(filt))
                });
                let sla = if class_label == "guar." {
                    format!("{:.0}%", report.sla_attainment() * 100.0)
                } else {
                    "-".into()
                };
                println!(
                    "{:<6} | {:<10} | {class_label:<6} | {:>14} | {:>14} | {:>12.2} | {sla:>9} | {:>8}",
                    trace_label(kind),
                    outcome.spec.scheduler,
                    with_ratio(hours(report.avg_jct_where(filt)), hours(ref_avg)),
                    with_ratio(hours(report.p99_jct_where(filt)), hours(ref_p99)),
                    hours(report.makespan),
                    report.jobs.len(),
                );
            }
        }
        println!("{}", "-".repeat(102));
    }

    // ---- §7.3 system overheads --------------------------------------------
    println!("\nSystem overheads (Rubick on the base trace):");
    if let Some(r) = outcomes
        .iter()
        .find(|o| o.spec.trace == TraceKind::Base && o.spec.scheduler == "rubick")
        .map(|o| &o.report)
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
    let registry = backend
        .registry(EXPERIMENT_SEED)
        .expect("table4.toml runs at the experiment seed");
    println!(
        "  profiling: {:.0} s total across 7 model types ({:.0} s/model; paper: 210 s/model)",
        registry.profiling_seconds,
        registry.profiling_seconds / 7.0
    );
}
