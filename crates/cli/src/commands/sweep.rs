//! `rubick sweep` — run a declarative scenario grid and emit one
//! CSV/JSONL row per cell.
//!
//! The spec file (a small TOML subset, see `EXPERIMENTS.md`) expands to
//! an ordered list of [`rubick_sim::ScenarioSpec`] cells; the harness
//! executor fans them out across worker threads and the output is
//! byte-identical at any `--parallelism` setting. The paper tables ship
//! as specs under `examples/sweeps/`.

use super::CliError;
use crate::args::Args;
use crate::output::Logger;
use rubick_bench::{ZooBackend, SCHEDULER_NAMES};
use rubick_sim::harness::baseline::{diff_outcomes, parse_baseline};
use rubick_sim::harness::grid::SweepSpec;
use rubick_sim::harness::sweep::{render_csv, render_jsonl, resolve_workers, run_cells_with};
use std::collections::BTreeSet;

/// Executes the `sweep` subcommand.
pub fn execute(args: &Args) -> Result<(), CliError> {
    args.allow(&[
        "out",
        "jsonl",
        "baseline",
        "parallelism",
        "log-level",
        "no-timings",
    ])?;
    let log = Logger::from_args(args)?;
    let spec_path = args
        .operand
        .as_deref()
        .ok_or("sweep requires a spec file: rubick sweep <spec.toml>")?;

    // Output-path collisions are user errors, caught before any work.
    let out = args.get("out");
    let jsonl = args.get("jsonl");
    if let (Some(a), Some(b)) = (out, jsonl) {
        if a == b {
            return Err(format!("--out and --jsonl both point at '{a}'").into());
        }
    }
    for (flag, target) in [("out", out), ("jsonl", jsonl)] {
        if target == Some(spec_path) {
            return Err(format!("--{flag} would overwrite the sweep spec '{spec_path}'").into());
        }
    }

    // The baseline parses before any cell runs, so a bad path or a
    // malformed file fails fast instead of after minutes of sweeping.
    let baseline = match args.get("baseline") {
        None => None,
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline '{path}': {e}"))?;
            let parsed =
                parse_baseline(&text).map_err(|e| format!("invalid baseline '{path}': {e}"))?;
            Some((path, parsed))
        }
    };

    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read sweep spec '{spec_path}': {e}"))?;
    let spec =
        SweepSpec::parse(&text).map_err(|e| format!("invalid sweep spec '{spec_path}': {e}"))?;
    let cells = spec
        .expand()
        .map_err(|e| format!("invalid sweep spec '{spec_path}': {e}"))?;
    if cells.is_empty() {
        return Err(format!("invalid sweep spec '{spec_path}': empty grid: no cells").into());
    }
    // Scheduler names resolve per cell inside worker threads; checking
    // them up front turns a mid-sweep failure into an instant one.
    for cell in &cells {
        if !SCHEDULER_NAMES.contains(&cell.scheduler.as_str()) {
            return Err(format!(
                "invalid sweep spec '{spec_path}': unknown scheduler '{}' ({})",
                cell.scheduler,
                SCHEDULER_NAMES.join("|")
            )
            .into());
        }
    }

    let threads = args.parallelism()?;
    let workers = resolve_workers(threads, cells.len());
    let seeds: BTreeSet<u64> = cells.iter().map(|c| c.seed).collect();
    log.info(&format!(
        "sweep '{}': {} cells, {} worker(s); profiling model zoo for {} seed(s)...",
        spec.name,
        cells.len(),
        workers,
        seeds.len()
    ));
    let backend = ZooBackend::prepare(seeds)?;
    // Timed by default: interactive sweeps want to see cell cost. The
    // timing columns are the only machine-dependent output bytes, so
    // anything comparing sweep output across runs (the sweep-smoke gate,
    // golden regeneration) passes --no-timings.
    let outcomes = run_cells_with(&cells, &backend, threads, !args.flag("no-timings"))?;

    let csv = render_csv(&outcomes);
    match out {
        Some(path) => {
            std::fs::write(path, &csv)
                .map_err(|e| format!("cannot write sweep output '{path}': {e}"))?;
            log.info(&format!("wrote {} cells to {path}", outcomes.len()));
        }
        None => print!("{csv}"),
    }
    if let Some(path) = jsonl {
        let text = render_jsonl(&spec.name, &outcomes);
        std::fs::write(path, &text)
            .map_err(|e| format!("cannot write sweep JSONL '{path}': {e}"))?;
        log.info(&format!("wrote {} cells to {path}", outcomes.len()));
    }

    // The regression gate runs last, after outputs are safely written —
    // a failing diff must not suppress the fresh results it points at.
    if let Some((path, baseline)) = baseline {
        let diff = diff_outcomes(&baseline, &outcomes);
        log.info(&format!(
            "baseline '{path}': {} matched, {} changed, {} added, {} missing",
            diff.matched,
            diff.changed.len(),
            diff.added.len(),
            diff.missing.len()
        ));
        if !diff.is_clean() {
            return Err(format!(
                "sweep regressed against baseline '{path}':\n{}",
                diff.render()
            )
            .into());
        }
    }
    Ok(())
}
