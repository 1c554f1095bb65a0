//! Human-facing output: the verbosity levels, the stderr logger, and the
//! formatters every subcommand renders reports through.
//!
//! Report text is *built* here and *printed* by the subcommands; the
//! library crates underneath deny `print_stdout`/`print_stderr`, so this
//! module (plus `main.rs`) is the only place bytes reach the terminal
//! from.

use crate::args::Args;
use crate::commands::CliError;
use rubick_obs::{FaultMetricsSink, JsonWriter};
use rubick_sim::metrics::Decision;
use rubick_sim::{JobClass, SimReport};
use std::fmt::Write as _;

/// How chatty the progress logging on stderr is. Report output on stdout
/// is unaffected — piping `--csv` to a file works at any level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Only errors (which `main` prints on exit anyway).
    Error,
    /// Progress messages: profiling, run start, events written. Default.
    Info,
    /// Additionally per-phase details useful when debugging runs.
    Debug,
}

impl LogLevel {
    fn parse(s: &str) -> Result<LogLevel, CliError> {
        match s {
            "error" => Ok(LogLevel::Error),
            "info" => Ok(LogLevel::Info),
            "debug" => Ok(LogLevel::Debug),
            other => Err(format!("invalid --log-level '{other}' (error|info|debug)").into()),
        }
    }
}

/// Stderr progress logger honoring `--log-level`.
pub struct Logger {
    level: LogLevel,
}

impl Logger {
    /// Builds a logger from the `--log-level` flag (default `info`).
    ///
    /// # Errors
    ///
    /// Rejects values other than `error`, `info` or `debug`.
    pub fn from_args(args: &Args) -> Result<Logger, CliError> {
        let level = match args.get("log-level") {
            None => LogLevel::Info,
            Some(v) => LogLevel::parse(v)?,
        };
        Ok(Logger { level })
    }

    /// Progress message, shown at `info` and `debug`.
    pub fn info(&self, msg: &str) {
        if self.level >= LogLevel::Info {
            eprintln!("{msg}");
        }
    }

    /// Detail message, shown at `debug` only.
    pub fn debug(&self, msg: &str) {
        if self.level >= LogLevel::Debug {
            eprintln!("{msg}");
        }
    }
}

/// The `serve` session's final protocol line: the report's headline
/// numbers as one JSON object (full fidelity stays in `--events`).
pub fn render_serve_report_line(report: &SimReport) -> String {
    let mut w = JsonWriter::new("report");
    w.str("scheduler", &report.scheduler);
    w.uint("finished", report.jobs.len() as u64);
    w.uint("unfinished", report.unfinished.len() as u64);
    w.raw("avg_jct_s", &format!("{:.3}", report.avg_jct()));
    w.raw("p99_jct_s", &format!("{:.3}", report.p99_jct()));
    w.raw("makespan_s", &format!("{:.3}", report.makespan));
    w.raw("gpu_hours", &format!("{:.3}", report.gpu_hours()));
    w.raw("sla", &format!("{:.4}", report.sla_attainment()));
    w.finish()
}

/// The `run --csv` key/value block.
pub fn render_report_csv(report: &SimReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "metric,value");
    let _ = writeln!(s, "scheduler,{}", report.scheduler);
    let _ = writeln!(s, "jobs,{}", report.jobs.len());
    let _ = writeln!(s, "unfinished,{}", report.unfinished.len());
    let _ = writeln!(s, "avg_jct_s,{:.1}", report.avg_jct());
    let _ = writeln!(s, "p99_jct_s,{:.1}", report.p99_jct());
    let _ = writeln!(s, "makespan_s,{:.1}", report.makespan);
    let _ = writeln!(s, "gpu_hours,{:.1}", report.gpu_hours());
    let _ = writeln!(s, "reconfig_share,{:.4}", report.reconfig_share());
    let _ = writeln!(s, "sla_attainment,{:.4}", report.sla_attainment());
    // Only emitted on refit-enabled runs, so frozen-model output (and
    // every committed golden) stays byte-identical.
    if report.model_refits > 0 {
        let _ = writeln!(s, "model_refits,{}", report.model_refits);
    }
    s
}

/// The human `run` summary block.
pub fn render_report(report: &SimReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "\n=== {} on {} jobs ===",
        report.scheduler,
        report.jobs.len()
    );
    let _ = writeln!(s, "avg JCT        : {:.2} h", report.avg_jct() / 3600.0);
    let _ = writeln!(s, "P99 JCT        : {:.2} h", report.p99_jct() / 3600.0);
    let _ = writeln!(s, "makespan       : {:.2} h", report.makespan / 3600.0);
    let _ = writeln!(s, "GPU-hours      : {:.0}", report.gpu_hours());
    let _ = writeln!(
        s,
        "reconfig       : {} events, {:.0} s avg, {:.2}% of GPU-hours",
        report.jobs.iter().map(|j| j.reconfig_count).sum::<u32>(),
        report.avg_reconfig_time(),
        report.reconfig_share() * 100.0
    );
    if report.model_refits > 0 {
        let _ = writeln!(s, "model refits   : {}", report.model_refits);
    }
    let guaranteed = report
        .jobs
        .iter()
        .filter(|j| j.class == JobClass::Guaranteed)
        .count();
    if guaranteed > 0 && guaranteed < report.jobs.len() {
        let _ = writeln!(
            s,
            "guaranteed     : {:.2} h avg JCT, SLA {:.0}%",
            report.avg_jct_class(JobClass::Guaranteed) / 3600.0,
            report.sla_attainment() * 100.0
        );
        let _ = writeln!(
            s,
            "best-effort    : {:.2} h avg JCT",
            report.avg_jct_class(JobClass::BestEffort) / 3600.0
        );
    }
    if !report.unfinished.is_empty() {
        let _ = writeln!(s, "UNFINISHED     : {:?}", report.unfinished);
    }
    s
}

/// The degraded-mode summary block printed after a `--chaos` run: node
/// churn, fault evictions/restarts, and the goodput lost to faults.
pub fn render_fault_report(metrics: &FaultMetricsSink) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "\n=== fault injection ===");
    let _ = writeln!(
        s,
        "node failures  : {} ({:.0} s total downtime, {} still down)",
        metrics.node_failures,
        metrics.node_downtime_secs,
        metrics.nodes_still_down()
    );
    let _ = writeln!(
        s,
        "fault evictions: {} ({} restarts, {:.1} s mean time-to-reschedule)",
        metrics.fault_evictions,
        metrics.restarts,
        metrics.mean_time_to_reschedule()
    );
    let _ = writeln!(
        s,
        "restart penalty: {:.0} s total",
        metrics.restart_penalty_secs
    );
    let _ = writeln!(
        s,
        "goodput lost   : {:.3} GPU-h",
        metrics.goodput_lost_gpu_seconds / 3600.0
    );
    s
}

/// The `--chaos --csv` key/value lines appended after the report CSV.
pub fn render_fault_csv(metrics: &FaultMetricsSink) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "node_failures,{}", metrics.node_failures);
    let _ = writeln!(s, "node_recoveries,{}", metrics.node_recoveries);
    let _ = writeln!(s, "node_downtime_s,{:.1}", metrics.node_downtime_secs);
    let _ = writeln!(s, "fault_evictions,{}", metrics.fault_evictions);
    let _ = writeln!(s, "restarts,{}", metrics.restarts);
    let _ = writeln!(s, "mean_resched_s,{:.1}", metrics.mean_time_to_reschedule());
    let _ = writeln!(
        s,
        "goodput_lost_gpu_h,{:.3}",
        metrics.goodput_lost_gpu_seconds / 3600.0
    );
    s
}

/// The `run --verbose` decision log.
pub fn render_decisions(report: &SimReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "\ndecision log ({} entries):", report.decisions.len());
    for d in &report.decisions {
        match d {
            Decision::Launch {
                at,
                job,
                gpus,
                plan,
                throughput,
            } => {
                let _ = writeln!(
                    s,
                    "  [{at:>8.0}s] launch   job {job:<4} {gpus:>2} GPUs  {plan:<26} {throughput:>8.1} samples/s",
                );
            }
            Decision::Reconfigure {
                at,
                job,
                gpus,
                plan,
                delay,
            } => {
                let _ = writeln!(
                    s,
                    "  [{at:>8.0}s] reconfig job {job:<4} {gpus:>2} GPUs  {plan:<26} (+{delay:.0}s checkpoint)",
                );
            }
            Decision::Preempt { at, job } => {
                let _ = writeln!(s, "  [{at:>8.0}s] preempt  job {job}");
            }
            Decision::Reject { at, job, reason } => {
                let _ = writeln!(s, "  [{at:>8.0}s] reject   job {job}: {reason}");
            }
            Decision::Finish { at, job } => {
                let _ = writeln!(s, "  [{at:>8.0}s] finish   job {job}");
            }
            Decision::Cancel { at, job } => {
                let _ = writeln!(s, "  [{at:>8.0}s] cancel   job {job}");
            }
        }
    }
    s
}

/// The `compare` table header (or CSV header).
pub fn compare_header(csv: bool) -> String {
    if csv {
        "scheduler,avg_jct_s,p99_jct_s,makespan_s,reconfigs,unfinished".to_string()
    } else {
        format!(
            "{:<10} | {:>10} | {:>10} | {:>12} | {:>9} | {:>10}\n{}",
            "scheduler",
            "avg JCT(h)",
            "p99 JCT(h)",
            "makespan(h)",
            "reconfigs",
            "unfinished",
            "-".repeat(76)
        )
    }
}

/// One `compare` row. `rubick_avg` (seconds) adds the slowdown ratio
/// column in the human table once the reference scheduler has run.
pub fn compare_row(name: &str, report: &SimReport, rubick_avg: Option<f64>, csv: bool) -> String {
    let reconfigs: u32 = report.jobs.iter().map(|j| j.reconfig_count).sum();
    if csv {
        format!(
            "{name},{:.1},{:.1},{:.1},{reconfigs},{}",
            report.avg_jct(),
            report.p99_jct(),
            report.makespan,
            report.unfinished.len()
        )
    } else {
        let avg = report.avg_jct() / 3600.0;
        let ratio = rubick_avg
            .map(|r| format!(" ({:.2}x)", avg / (r / 3600.0)))
            .unwrap_or_default();
        format!(
            "{name:<10} | {avg:>6.2}{ratio:<4} | {:>10.2} | {:>12.2} | {reconfigs:>9} | {:>10}",
            report.p99_jct() / 3600.0,
            report.makespan / 3600.0,
            report.unfinished.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_levels_order_and_parse() {
        assert!(LogLevel::Debug > LogLevel::Info);
        assert!(LogLevel::Info > LogLevel::Error);
        assert_eq!(LogLevel::parse("debug").unwrap(), LogLevel::Debug);
        assert!(LogLevel::parse("verbose").is_err());
    }

    #[test]
    fn csv_report_has_fixed_schema() {
        let report = SimReport {
            scheduler: "test".into(),
            ..SimReport::default()
        };
        let text = render_report_csv(&report);
        assert!(text.starts_with("metric,value\nscheduler,test\n"));
        assert_eq!(text.lines().count(), 10);
    }
}
