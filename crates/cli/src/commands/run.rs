//! `rubick run` — one scheduler, one trace, a JCT report.
//!
//! All engine wiring lives in the shared scenario harness
//! ([`rubick_sim::run_scenario_with`]); this module only translates
//! flags into a [`ScenarioSpec`] and renders the outcome.

use super::{chaos_from, scenario_spec_from, CliBackend, CliError, SCHEDULER_NAMES};
use crate::args::Args;
use crate::output::{
    render_decisions, render_fault_csv, render_fault_report, render_report, render_report_csv,
    Logger,
};
use rubick_model::NodeShape;
use rubick_obs::{BufferedJsonlSink, EventSink, FanoutSink, ProgressSink, UtilTimelineSink};
use rubick_sim::run_scenario_with;

/// Executes the `run` subcommand.
pub fn execute(args: &Args) -> Result<(), CliError> {
    args.allow(&[
        "scheduler",
        "trace",
        "jobs",
        "load",
        "large-frac",
        "seed",
        "csv",
        "verbose",
        "events",
        "progress",
        "log-level",
        "chaos",
        "chaos-seed",
        "refit",
        "refit-threshold",
        "util-timeline",
    ])?;
    let log = Logger::from_args(args)?;
    let spec = scenario_spec_from(args)?;
    // Validate the scheduler name and chaos config up front, before the
    // (slow) zoo profiling.
    if !SCHEDULER_NAMES.contains(&spec.scheduler.as_str()) {
        return Err(CliError::from(format!(
            "unknown scheduler '{}' ({})",
            spec.scheduler,
            SCHEDULER_NAMES.join("|")
        )));
    }
    let chaos = chaos_from(args, spec.nodes, spec.engine_config().max_time)?;
    log.info("profiling model zoo...");
    let backend = CliBackend::prepare([spec.seed])?;
    log.info(&format!(
        "running {} jobs through {}...",
        spec.jobs, spec.scheduler
    ));
    if let Some(plan) = &chaos {
        log.info(&format!(
            "injecting faults: {} timeline events, {} straggler node(s)",
            plan.timeline().len(),
            plan.stragglers().len()
        ));
    }
    if let Some(threshold) = spec.refit {
        log.info(&format!(
            "online refitting enabled (material-change threshold {threshold})"
        ));
    }
    // The event spine fans out to up to three sinks: the buffered JSONL
    // writer (--events), the live stderr progress line (--progress) and
    // the per-round utilization timeline (--util-timeline).
    let mut progress = args
        .flag("progress")
        .then(|| ProgressSink::new(std::io::stderr()));
    let mut events = match args.get("events") {
        Some(path) => Some(
            BufferedJsonlSink::create(path)
                .map_err(|e| format!("cannot create events file '{path}': {e}"))?,
        ),
        None => None,
    };
    let mut util = match args.get("util-timeline") {
        Some(path) => Some(
            UtilTimelineSink::create(path, spec.nodes as u64, NodeShape::a800().gpus)
                .map_err(|e| format!("cannot create util timeline '{path}': {e}"))?,
        ),
        None => None,
    };
    let outcome = {
        let mut fan = FanoutSink::new();
        if let Some(events) = &mut events {
            fan.push(events);
        }
        if let Some(progress) = &mut progress {
            fan.push(progress);
        }
        if let Some(util) = &mut util {
            fan.push(util);
        }
        if fan.is_empty() {
            run_scenario_with(&spec, &backend, chaos, None)?
        } else {
            run_scenario_with(&spec, &backend, chaos, Some(&mut fan as &mut dyn EventSink))?
        }
    };
    if let Some(progress) = &mut progress {
        progress
            .finish()
            .map_err(|e| format!("failed writing progress line: {e}"))?;
    }
    if let Some(sink) = &mut events {
        let path = args.get("events").expect("events sink implies the flag");
        sink.flush()
            .map_err(|e| format!("failed writing events file '{path}': {e}"))?;
        log.info(&format!("wrote {} events to {path}", sink.events_written()));
    }
    if let Some(sink) = &mut util {
        let path = args
            .get("util-timeline")
            .expect("util sink implies the flag");
        sink.flush()
            .map_err(|e| format!("failed writing util timeline '{path}': {e}"))?;
        log.info(&format!(
            "wrote {} utilization points to {path}",
            sink.lines_written()
        ));
    }
    let report = &outcome.report;
    log.debug(&format!(
        "{} scheduling rounds, {} decisions",
        report.rounds,
        report.decisions.len()
    ));

    if args.flag("csv") {
        print!("{}", render_report_csv(report));
        if let Some(metrics) = &outcome.faults {
            print!("{}", render_fault_csv(metrics));
        }
        return Ok(());
    }
    print!("{}", render_report(report));
    if let Some(metrics) = &outcome.faults {
        print!("{}", render_fault_report(metrics));
    }
    if args.flag("verbose") {
        print!("{}", render_decisions(report));
    }
    Ok(())
}
