//! Deterministic parallel execution of a sweep's cells, plus the fixed
//! CSV/JSONL row schema every cell is rendered through.
//!
//! Cells are fully independent simulations (own oracle, own cluster, own
//! scheduler), so they fan out across worker threads with a simple
//! shared cursor. Results are stored by cell index and rendered in grid
//! order, which makes the output **byte-identical at any worker count**:
//! parallelism only changes wall-clock time, never a single output byte.
//! The `sweep_golden`/`sweep_equivalence` suites in `rubick-bench` pin
//! this property.
//!
//! Timed runs ([`run_cells_with`] with `timings = true`) additionally
//! stamp each cell with its wall-clock cost; those two columns are the
//! only machine-dependent bytes in a row, so determinism gates and
//! goldens always run untimed (the CLI's `--no-timings`).

use super::{run_scenario, CellTiming, ScenarioBackend, ScenarioOutcome, ScenarioSpec};
use rubick_obs::JsonWriter;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The fixed CSV header: one row per cell, spec dimensions first (so any
/// row is self-describing), then the Table 4 metrics, then the fault
/// metrics (zero when the cell ran without chaos), then the wall-clock
/// columns (empty when the sweep ran untimed).
pub const SWEEP_CSV_HEADER: &str = "cell,trace,scheduler,jobs,load,large_frac,seed,nodes,\
     chaos_rate,chaos_seed,finished,unfinished,avg_jct_s,p99_jct_s,makespan_s,gpu_hours,\
     reconfigs,reconfig_share,sla,avg_jct_guar_s,avg_jct_be_s,node_failures,fault_evictions,\
     restarts,goodput_lost_gpu_h,wall_ms,mean_round_ns";

/// Sweep JSONL schema version (bumped when row fields change).
///
/// * v1 — spec dimensions + Table 4 metrics + fault metrics.
/// * v2 — adds `wall_ms` and `mean_round_ns` per cell (`null` untimed).
pub const SWEEP_SCHEMA_VERSION: u32 = 2;

/// Resolves the worker-thread count for `cells` cells: `None` = 1
/// (sequential), `Some(0)` = all cores, `Some(n)` = at most `n`, always
/// capped at the cell count.
pub fn resolve_workers(threads: Option<usize>, cells: usize) -> usize {
    let requested = match threads {
        None => 1,
        Some(0) => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        Some(n) => n,
    };
    requested.clamp(1, cells.max(1))
}

/// Runs one cell, stamping wall-clock timing onto the outcome when the
/// sweep runs timed. The timestamps never influence the simulation —
/// they wrap [`run_scenario`] from the outside — so a timed run's report
/// bytes are identical to an untimed run's.
fn run_cell(
    spec: &ScenarioSpec,
    backend: &dyn ScenarioBackend,
    timed: bool,
) -> Result<ScenarioOutcome, String> {
    if !timed {
        return run_scenario(spec, backend);
    }
    let start = Instant::now();
    let mut outcome = run_scenario(spec, backend)?;
    let wall = start.elapsed().as_secs_f64();
    outcome.timing = Some(CellTiming {
        wall_ms: wall * 1e3,
        mean_round_ns: wall * 1e9 / outcome.report.rounds.max(1) as f64,
    });
    Ok(outcome)
}

/// Runs every cell untimed. See [`run_cells_with`].
///
/// # Errors
///
/// The lowest-index failing cell's error, prefixed with its index and
/// label — deterministic even when several cells fail concurrently.
pub fn run_cells(
    specs: &[ScenarioSpec],
    backend: &dyn ScenarioBackend,
    threads: Option<usize>,
) -> Result<Vec<ScenarioOutcome>, String> {
    run_cells_with(specs, backend, threads, false)
}

/// Runs every cell, fanning out across `threads` workers (see
/// [`resolve_workers`]). Outcomes come back in cell (grid) order
/// regardless of which worker ran which cell or in what order they
/// finished.
///
/// With `timings` set, each outcome carries a [`CellTiming`] measured
/// around that cell's run. Timed rows are machine-dependent — pass
/// `false` (or use [`run_cells`]) wherever byte-determinism matters.
///
/// # Errors
///
/// The lowest-index failing cell's error, prefixed with its index and
/// label — deterministic even when several cells fail concurrently.
pub fn run_cells_with(
    specs: &[ScenarioSpec],
    backend: &dyn ScenarioBackend,
    threads: Option<usize>,
    timings: bool,
) -> Result<Vec<ScenarioOutcome>, String> {
    if specs.is_empty() {
        return Err("empty grid: no cells to run".to_string());
    }
    let workers = resolve_workers(threads, specs.len());
    let results: Vec<Result<ScenarioOutcome, String>> = if workers <= 1 {
        specs
            .iter()
            .map(|spec| run_cell(spec, backend, timings))
            .collect()
    } else {
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<ScenarioOutcome, String>>>> =
            specs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= specs.len() {
                        break;
                    }
                    let result = run_cell(&specs[i], backend, timings);
                    *slots[i].lock().expect("sweep slot poisoned") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("sweep slot poisoned")
                    .expect("every cell index below the cursor was run")
            })
            .collect()
    };
    let mut outcomes = Vec::with_capacity(results.len());
    for (i, result) in results.into_iter().enumerate() {
        match result {
            Ok(outcome) => outcomes.push(outcome),
            Err(e) => return Err(format!("cell {i} ({}): {e}", specs[i].label())),
        }
    }
    Ok(outcomes)
}

/// The row fields shared by the CSV and JSONL renderers, preformatted.
struct Row {
    cell: usize,
    trace: &'static str,
    scheduler: String,
    jobs: usize,
    load: f64,
    large_frac: Option<f64>,
    seed: u64,
    nodes: usize,
    chaos_rate: f64,
    chaos_seed: u64,
    finished: usize,
    unfinished: usize,
    avg_jct_s: String,
    p99_jct_s: String,
    makespan_s: String,
    gpu_hours: String,
    reconfigs: u32,
    reconfig_share: String,
    sla: String,
    avg_jct_guar_s: String,
    avg_jct_be_s: String,
    node_failures: u64,
    fault_evictions: u64,
    restarts: u64,
    goodput_lost_gpu_h: String,
    wall_ms: Option<String>,
    mean_round_ns: Option<String>,
}

impl Row {
    fn new(cell: usize, outcome: &ScenarioOutcome) -> Row {
        let spec = &outcome.spec;
        let report = &outcome.report;
        let reconfigs: u32 = report.jobs.iter().map(|j| j.reconfig_count).sum();
        let (chaos_rate, chaos_seed) = spec
            .chaos
            .as_ref()
            .map_or((0.0, 0), |c| (c.failure_rate_per_hour, c.seed));
        let (node_failures, fault_evictions, restarts, goodput_lost) =
            outcome.faults.as_ref().map_or((0, 0, 0, 0.0), |f| {
                (
                    f.node_failures,
                    f.fault_evictions,
                    f.restarts,
                    f.goodput_lost_gpu_seconds / 3600.0,
                )
            });
        Row {
            cell,
            trace: spec.trace.as_str(),
            scheduler: spec.scheduler.clone(),
            jobs: spec.jobs,
            load: spec.load,
            large_frac: spec.large_frac,
            seed: spec.seed,
            nodes: spec.nodes,
            chaos_rate,
            chaos_seed,
            finished: report.jobs.len(),
            unfinished: report.unfinished.len(),
            avg_jct_s: format!("{:.3}", report.avg_jct()),
            p99_jct_s: format!("{:.3}", report.p99_jct()),
            makespan_s: format!("{:.3}", report.makespan),
            gpu_hours: format!("{:.3}", report.gpu_hours()),
            reconfigs,
            reconfig_share: format!("{:.4}", report.reconfig_share()),
            sla: format!("{:.4}", report.sla_attainment()),
            avg_jct_guar_s: format!(
                "{:.3}",
                report.avg_jct_class(crate::job::JobClass::Guaranteed)
            ),
            avg_jct_be_s: format!(
                "{:.3}",
                report.avg_jct_class(crate::job::JobClass::BestEffort)
            ),
            node_failures,
            fault_evictions,
            restarts,
            goodput_lost_gpu_h: format!("{:.3}", goodput_lost),
            wall_ms: outcome.timing.map(|t| format!("{:.3}", t.wall_ms)),
            mean_round_ns: outcome.timing.map(|t| format!("{:.0}", t.mean_round_ns)),
        }
    }
}

/// Renders one cell as a CSV line (no trailing newline), columns exactly
/// as in [`SWEEP_CSV_HEADER`]; the timing columns are empty when the
/// sweep ran untimed.
pub fn csv_row(cell: usize, outcome: &ScenarioOutcome) -> String {
    let r = Row::new(cell, outcome);
    let large_frac = r.large_frac.map(|f| f.to_string()).unwrap_or_default();
    let wall_ms = r.wall_ms.unwrap_or_default();
    let mean_round_ns = r.mean_round_ns.unwrap_or_default();
    format!(
        "{},{},{},{},{},{large_frac},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},\
         {wall_ms},{mean_round_ns}",
        r.cell,
        r.trace,
        r.scheduler,
        r.jobs,
        r.load,
        r.seed,
        r.nodes,
        r.chaos_rate,
        r.chaos_seed,
        r.finished,
        r.unfinished,
        r.avg_jct_s,
        r.p99_jct_s,
        r.makespan_s,
        r.gpu_hours,
        r.reconfigs,
        r.reconfig_share,
        r.sla,
        r.avg_jct_guar_s,
        r.avg_jct_be_s,
        r.node_failures,
        r.fault_evictions,
        r.restarts,
        r.goodput_lost_gpu_h,
    )
}

/// Renders the whole sweep as CSV: header plus one line per cell, in
/// grid order, with a trailing newline.
pub fn render_csv(outcomes: &[ScenarioOutcome]) -> String {
    let mut s = String::with_capacity(64 * (outcomes.len() + 1));
    s.push_str(SWEEP_CSV_HEADER);
    s.push('\n');
    for (i, outcome) in outcomes.iter().enumerate() {
        s.push_str(&csv_row(i, outcome));
        s.push('\n');
    }
    s
}

/// The JSONL stream header line carrying the sweep name and cell count.
pub fn jsonl_header(name: &str, cells: usize) -> String {
    let mut w = JsonWriter::new("sweep");
    w.uint("version", u64::from(SWEEP_SCHEMA_VERSION));
    w.str("name", name);
    w.uint("cells", cells as u64);
    w.finish()
}

/// Renders one cell as a JSON object (no trailing newline), fields
/// mirroring the CSV columns; `large_frac` is `null` when unset, and the
/// timing fields are `null` when the sweep ran untimed.
pub fn jsonl_row(cell: usize, outcome: &ScenarioOutcome) -> String {
    let r = Row::new(cell, outcome);
    let mut w = JsonWriter::untyped();
    w.uint("cell", r.cell as u64);
    w.str("trace", r.trace);
    w.str("scheduler", &r.scheduler);
    w.uint("jobs", r.jobs as u64);
    w.num("load", r.load);
    w.opt_num("large_frac", r.large_frac);
    w.uint("seed", r.seed);
    w.uint("nodes", r.nodes as u64);
    w.num("chaos_rate", r.chaos_rate);
    w.uint("chaos_seed", r.chaos_seed);
    w.uint("finished", r.finished as u64);
    w.uint("unfinished", r.unfinished as u64);
    w.raw("avg_jct_s", &r.avg_jct_s);
    w.raw("p99_jct_s", &r.p99_jct_s);
    w.raw("makespan_s", &r.makespan_s);
    w.raw("gpu_hours", &r.gpu_hours);
    w.uint("reconfigs", u64::from(r.reconfigs));
    w.raw("reconfig_share", &r.reconfig_share);
    w.raw("sla", &r.sla);
    w.raw("avg_jct_guar_s", &r.avg_jct_guar_s);
    w.raw("avg_jct_be_s", &r.avg_jct_be_s);
    w.uint("node_failures", r.node_failures);
    w.uint("fault_evictions", r.fault_evictions);
    w.uint("restarts", r.restarts);
    w.raw("goodput_lost_gpu_h", &r.goodput_lost_gpu_h);
    w.raw("wall_ms", r.wall_ms.as_deref().unwrap_or("null"));
    w.raw(
        "mean_round_ns",
        r.mean_round_ns.as_deref().unwrap_or("null"),
    );
    w.finish()
}

/// Renders the whole sweep as JSON Lines: the [`jsonl_header`] line plus
/// one object per cell, in grid order, with a trailing newline.
pub fn render_jsonl(name: &str, outcomes: &[ScenarioOutcome]) -> String {
    let mut s = String::with_capacity(128 * (outcomes.len() + 1));
    s.push_str(&jsonl_header(name, outcomes.len()));
    s.push('\n');
    for (i, outcome) in outcomes.iter().enumerate() {
        s.push_str(&jsonl_row(i, outcome));
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ChaosKnobs;
    use crate::metrics::SimReport;

    fn outcome(scheduler: &str, chaos: bool) -> ScenarioOutcome {
        ScenarioOutcome {
            spec: ScenarioSpec {
                scheduler: scheduler.to_string(),
                chaos: chaos.then_some(ChaosKnobs {
                    failure_rate_per_hour: 0.25,
                    seed: 9,
                }),
                ..ScenarioSpec::default()
            },
            report: SimReport {
                scheduler: scheduler.to_string(),
                makespan: 1234.5,
                rounds: 3,
                ..SimReport::default()
            },
            faults: None,
            timing: None,
        }
    }

    #[test]
    fn csv_rows_match_the_header_arity() {
        let columns = SWEEP_CSV_HEADER.split(',').count();
        for oc in [outcome("rubick", false), outcome("sia", true)] {
            let row = csv_row(0, &oc);
            assert_eq!(row.split(',').count(), columns, "row: {row}");
        }
    }

    #[test]
    fn csv_carries_spec_dimensions_and_chaos_knobs() {
        let row = csv_row(3, &outcome("sia", true));
        assert!(row.starts_with("3,base,sia,406,1,,2025,8,0.25,9,"), "{row}");
        let quiet = csv_row(0, &outcome("rubick", false));
        assert!(quiet.contains(",0,0,"), "{quiet}");
    }

    #[test]
    fn jsonl_header_and_rows_are_well_formed() {
        let header = jsonl_header("fig\"10\"", 2);
        assert!(header.contains("\\\"10\\\""), "{header}");
        assert!(header.contains("\"version\":2"), "{header}");
        // Any name reads back unchanged, and re-renders to the same line.
        let odd = "n\"a\\m\te\r\n\u{1}-é";
        let header = jsonl_header(odd, 2);
        assert!(
            header.contains(r#""name":"n\"a\\m\te\r\n\u0001-é""#),
            "{header}"
        );
        let obj = rubick_obs::JsonObject::parse(&header).unwrap();
        assert_eq!(obj.str("name").unwrap(), odd);
        assert_eq!(jsonl_header(obj.str("name").unwrap(), 2), header);
        let row = jsonl_row(1, &outcome("rubick", false));
        assert!(row.contains("\"large_frac\":null"), "{row}");
        assert!(row.contains("\"makespan_s\":1234.500"), "{row}");
        assert!(row.contains("\"wall_ms\":null"), "{row}");
        assert!(row.contains("\"mean_round_ns\":null"), "{row}");
        assert_eq!(row.matches('{').count(), row.matches('}').count());
    }

    #[test]
    fn timed_outcomes_render_the_wall_clock_columns() {
        let mut oc = outcome("rubick", false);
        oc.timing = Some(CellTiming {
            wall_ms: 12.3456,
            mean_round_ns: 4_115_200.4,
        });
        let csv = csv_row(0, &oc);
        assert!(csv.ends_with(",12.346,4115200"), "{csv}");
        assert_eq!(csv.split(',').count(), SWEEP_CSV_HEADER.split(',').count());
        let json = jsonl_row(0, &oc);
        assert!(
            json.contains("\"wall_ms\":12.346") && json.contains("\"mean_round_ns\":4115200"),
            "{json}"
        );
    }

    #[test]
    fn worker_resolution_caps_at_cell_count() {
        assert_eq!(resolve_workers(None, 10), 1);
        assert_eq!(resolve_workers(Some(4), 10), 4);
        assert_eq!(resolve_workers(Some(16), 3), 3);
        assert!(resolve_workers(Some(0), 100) >= 1);
        assert_eq!(resolve_workers(Some(4), 0), 1);
    }

    #[test]
    fn render_csv_emits_header_and_grid_order() {
        let outcomes = vec![outcome("rubick", false), outcome("sia", false)];
        let text = render_csv(&outcomes);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], SWEEP_CSV_HEADER);
        assert!(lines[1].starts_with("0,base,rubick,"));
        assert!(lines[2].starts_with("1,base,sia,"));
    }
}
