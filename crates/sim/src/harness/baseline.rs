//! Sweep **regression baselines**: diff a fresh sweep against the output
//! of an earlier one (`rubick sweep --baseline old.csv`).
//!
//! A baseline is simply a prior sweep's `--out` CSV or `--jsonl` file.
//! Cells are matched by their *spec dimensions* (trace, scheduler, jobs,
//! load, …), never by row index, so reordering or extending a grid does
//! not produce false diffs. Metric columns are compared numerically —
//! `1234.5` in a JSONL baseline equals `1234.500` in a CSV sweep — and
//! the machine-dependent columns (`cell`, `wall_ms`, `mean_round_ns`)
//! are ignored.
//!
//! [`BaselineDiff::is_clean`] is the CI gate: cells present in both runs
//! must agree on every compared column. Cells only in the new sweep
//! (`added`) or only in the baseline (`missing`) are reported but do not
//! fail the gate — growing or shrinking a grid is not a regression.

use super::sweep::{csv_row, SWEEP_CSV_HEADER};
use super::ScenarioOutcome;
use rubick_obs::JsonObject;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The spec-dimension columns that identify a cell across sweeps.
pub const BASELINE_KEY_COLUMNS: &[&str] = &[
    "trace",
    "scheduler",
    "jobs",
    "load",
    "large_frac",
    "seed",
    "nodes",
    "chaos_rate",
    "chaos_seed",
];

/// Columns excluded from comparison: row index and wall-clock timings.
pub const BASELINE_SKIP_COLUMNS: &[&str] = &["cell", "wall_ms", "mean_round_ns"];

/// One parsed baseline row: column name → value, as written.
type RowValues = BTreeMap<String, String>;

/// A parsed baseline file: cell key → row, plus the key order of the file.
#[derive(Debug, Clone)]
pub struct Baseline {
    rows: BTreeMap<String, RowValues>,
    order: Vec<String>,
}

impl Baseline {
    /// Number of cells in the baseline.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the baseline holds no cells.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

fn row_key(values: &RowValues) -> String {
    let mut key = String::new();
    for col in BASELINE_KEY_COLUMNS {
        if !key.is_empty() {
            key.push('/');
        }
        key.push_str(col);
        key.push('=');
        key.push_str(values.get(*col).map(String::as_str).unwrap_or(""));
    }
    key
}

fn insert_row(
    rows: &mut BTreeMap<String, RowValues>,
    order: &mut Vec<String>,
    values: RowValues,
) -> Result<(), String> {
    let key = row_key(&values);
    if rows.insert(key.clone(), values).is_some() {
        return Err(format!("duplicate cell {key}"));
    }
    order.push(key);
    Ok(())
}

fn parse_csv(text: &str) -> Result<Baseline, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("baseline file is empty")?;
    let columns: Vec<&str> = header.split(',').map(str::trim).collect();
    for required in BASELINE_KEY_COLUMNS {
        if !columns.contains(required) {
            return Err(format!(
                "baseline CSV header has no '{required}' column — not a sweep CSV"
            ));
        }
    }
    let mut rows = BTreeMap::new();
    let mut order = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != columns.len() {
            return Err(format!(
                "baseline CSV line {}: {} field(s), header has {}",
                i + 2,
                fields.len(),
                columns.len()
            ));
        }
        let values: RowValues = columns
            .iter()
            .zip(&fields)
            .map(|(c, f)| ((*c).to_string(), (*f).to_string()))
            .collect();
        insert_row(&mut rows, &mut order, values)
            .map_err(|e| format!("baseline CSV line {}: {e}", i + 2))?;
    }
    Ok(Baseline { rows, order })
}

/// Reads one column off a parsed JSONL row as the uniform string form
/// used for comparison (absent and `null` both read as empty, matching
/// the CSV renderer's empty cells).
fn object_value(obj: &JsonObject, key: &str) -> Result<String, String> {
    if !obj.contains(key) {
        return Ok(String::new());
    }
    if let Ok(Some(s)) = obj.opt_str(key) {
        return Ok(s.to_string());
    }
    match obj.opt_num(key) {
        Ok(Some(n)) => Ok(format!("{n}")),
        Ok(None) => Ok(String::new()),
        Err(e) => Err(format!("field '{key}': {e}")),
    }
}

fn parse_jsonl(text: &str) -> Result<Baseline, String> {
    let mut rows = BTreeMap::new();
    let mut order = Vec::new();
    let columns: Vec<&str> = SWEEP_CSV_HEADER.split(',').map(str::trim).collect();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj =
            JsonObject::parse(line).map_err(|e| format!("baseline JSONL line {}: {e}", i + 1))?;
        let ty = obj.ty().unwrap_or("");
        if ty == "sweep" {
            continue; // the stream header
        }
        if !ty.is_empty() {
            return Err(format!(
                "baseline JSONL line {}: unexpected record type '{ty}'",
                i + 1
            ));
        }
        let mut values = RowValues::new();
        for col in &columns {
            values.insert(
                (*col).to_string(),
                object_value(&obj, col)
                    .map_err(|e| format!("baseline JSONL line {}: {e}", i + 1))?,
            );
        }
        insert_row(&mut rows, &mut order, values)
            .map_err(|e| format!("baseline JSONL line {}: {e}", i + 1))?;
    }
    if order.is_empty() {
        return Err("baseline JSONL holds no cell rows".to_string());
    }
    Ok(Baseline { rows, order })
}

/// Parses a baseline from a prior sweep's CSV (`--out`) or JSONL
/// (`--jsonl`) text, auto-detected by the first character.
///
/// # Errors
///
/// Empty or malformed files, non-sweep headers, duplicate cells.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    if text.trim_start().starts_with('{') {
        parse_jsonl(text)
    } else {
        parse_csv(text)
    }
}

/// One column that changed between the baseline and the current sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDiff {
    /// Column name.
    pub column: String,
    /// The baseline's value.
    pub baseline: String,
    /// The current sweep's value.
    pub current: String,
}

/// One cell whose metrics diverged from the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellDiff {
    /// The cell's spec-dimension key.
    pub key: String,
    /// Every column that changed, in header order.
    pub fields: Vec<FieldDiff>,
}

/// The outcome of diffing a sweep against a baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineDiff {
    /// Cells present in both runs whose metrics diverged.
    pub changed: Vec<CellDiff>,
    /// Cells present in both runs with identical metrics.
    pub matched: usize,
    /// Cell keys only in the current sweep (grid order).
    pub added: Vec<String>,
    /// Cell keys only in the baseline (baseline order).
    pub missing: Vec<String>,
}

impl BaselineDiff {
    /// The CI gate: no overlapping cell changed.
    pub fn is_clean(&self) -> bool {
        self.changed.is_empty()
    }

    /// A human-readable multi-line summary of the diff.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "baseline: {} matched, {} changed, {} added, {} missing",
            self.matched,
            self.changed.len(),
            self.added.len(),
            self.missing.len()
        );
        for cell in &self.changed {
            let _ = writeln!(out, "  changed {}", cell.key);
            for f in &cell.fields {
                let _ = writeln!(
                    out,
                    "    {}: {} -> {}",
                    f.column,
                    if f.baseline.is_empty() {
                        "(empty)"
                    } else {
                        &f.baseline
                    },
                    if f.current.is_empty() {
                        "(empty)"
                    } else {
                        &f.current
                    }
                );
            }
        }
        for key in &self.added {
            let _ = writeln!(out, "  added   {key}");
        }
        for key in &self.missing {
            let _ = writeln!(out, "  missing {key}");
        }
        out
    }
}

/// Two rendered values agree when they parse to the same number, or —
/// when either is non-numeric — when the strings match exactly.
fn values_equal(a: &str, b: &str) -> bool {
    match (a.parse::<f64>(), b.parse::<f64>()) {
        (Ok(x), Ok(y)) => x == y,
        _ => a == b,
    }
}

/// Diffs a sweep's outcomes against a parsed baseline. Cells are matched
/// by spec key; compared columns are every sweep column except the keys
/// themselves and [`BASELINE_SKIP_COLUMNS`].
pub fn diff_outcomes(baseline: &Baseline, outcomes: &[ScenarioOutcome]) -> BaselineDiff {
    let columns: Vec<&str> = SWEEP_CSV_HEADER.split(',').map(str::trim).collect();
    let mut diff = BaselineDiff {
        changed: Vec::new(),
        matched: 0,
        added: Vec::new(),
        missing: Vec::new(),
    };
    let mut seen: Vec<&str> = Vec::new();
    for (i, outcome) in outcomes.iter().enumerate() {
        let row = csv_row(i, outcome);
        let values: RowValues = columns
            .iter()
            .zip(row.split(','))
            .map(|(c, f)| ((*c).to_string(), f.to_string()))
            .collect();
        let key = row_key(&values);
        let Some(base) = baseline.rows.get(&key) else {
            diff.added.push(key);
            continue;
        };
        seen.push(
            baseline
                .order
                .iter()
                .find(|k| **k == key)
                .expect("key came from rows")
                .as_str(),
        );
        let mut fields = Vec::new();
        for col in &columns {
            if BASELINE_SKIP_COLUMNS.contains(col) || BASELINE_KEY_COLUMNS.contains(col) {
                continue;
            }
            let current = values.get(*col).map(String::as_str).unwrap_or("");
            let before = base.get(*col).map(String::as_str).unwrap_or("");
            if !values_equal(before, current) {
                fields.push(FieldDiff {
                    column: (*col).to_string(),
                    baseline: before.to_string(),
                    current: current.to_string(),
                });
            }
        }
        if fields.is_empty() {
            diff.matched += 1;
        } else {
            diff.changed.push(CellDiff { key, fields });
        }
    }
    for key in &baseline.order {
        if !seen.contains(&key.as_str()) {
            diff.missing.push(key.clone());
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::sweep::{render_csv, render_jsonl};
    use crate::harness::{ChaosKnobs, ScenarioSpec};
    use crate::metrics::SimReport;

    fn outcome(scheduler: &str, load: f64) -> ScenarioOutcome {
        ScenarioOutcome {
            spec: ScenarioSpec {
                scheduler: scheduler.to_string(),
                load,
                chaos: None,
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
    fn identical_sweeps_diff_clean_in_both_formats() {
        let outcomes = vec![outcome("rubick", 1.0), outcome("sia", 1.5)];
        for text in [render_csv(&outcomes), render_jsonl("fig10", &outcomes)] {
            let baseline = parse_baseline(&text).unwrap();
            assert_eq!(baseline.len(), 2);
            let diff = diff_outcomes(&baseline, &outcomes);
            assert!(diff.is_clean(), "{}", diff.render());
            assert_eq!(diff.matched, 2);
            assert!(diff.added.is_empty() && diff.missing.is_empty());
        }
    }

    #[test]
    fn metric_drift_is_reported_per_column() {
        let outcomes = vec![outcome("rubick", 1.0)];
        let baseline = parse_baseline(&render_csv(&outcomes)).unwrap();
        let mut drifted = outcomes;
        drifted[0].report.makespan = 9999.0;
        let diff = diff_outcomes(&baseline, &drifted);
        assert!(!diff.is_clean());
        assert_eq!(diff.changed.len(), 1);
        let fields = &diff.changed[0].fields;
        assert_eq!(fields.len(), 1, "{:?}", fields);
        assert_eq!(fields[0].column, "makespan_s");
        assert_eq!(fields[0].baseline, "1234.500");
        assert_eq!(fields[0].current, "9999.000");
        assert!(diff.render().contains("makespan_s: 1234.500 -> 9999.000"));
    }

    #[test]
    fn cells_match_by_spec_key_not_row_order() {
        let outcomes = vec![outcome("rubick", 1.0), outcome("sia", 1.5)];
        let baseline = parse_baseline(&render_csv(&outcomes)).unwrap();
        let reordered = vec![outcome("sia", 1.5), outcome("rubick", 1.0)];
        let diff = diff_outcomes(&baseline, &reordered);
        assert!(diff.is_clean(), "{}", diff.render());
        assert_eq!(diff.matched, 2);
    }

    #[test]
    fn grid_growth_and_shrinkage_are_reported_not_fatal() {
        let baseline =
            parse_baseline(&render_csv(&[outcome("rubick", 1.0), outcome("sia", 1.5)])).unwrap();
        let current = vec![outcome("rubick", 1.0), outcome("antman", 2.0)];
        let diff = diff_outcomes(&baseline, &current);
        assert!(diff.is_clean());
        assert_eq!(diff.matched, 1);
        assert_eq!(diff.added.len(), 1);
        assert!(
            diff.added[0].contains("scheduler=antman"),
            "{:?}",
            diff.added
        );
        assert_eq!(diff.missing.len(), 1);
        assert!(
            diff.missing[0].contains("scheduler=sia"),
            "{:?}",
            diff.missing
        );
    }

    #[test]
    fn timing_columns_never_diff() {
        let outcomes = vec![outcome("rubick", 1.0)];
        let baseline = parse_baseline(&render_csv(&outcomes)).unwrap();
        let mut timed = outcomes;
        timed[0].timing = Some(crate::harness::CellTiming {
            wall_ms: 55.5,
            mean_round_ns: 1e6,
        });
        let diff = diff_outcomes(&baseline, &timed);
        assert!(diff.is_clean(), "{}", diff.render());
    }

    #[test]
    fn numeric_equality_bridges_csv_and_jsonl_formatting() {
        assert!(values_equal("1234.500", "1234.5"));
        assert!(values_equal("0.0000", "0"));
        assert!(!values_equal("1234.5", "1234.6"));
        assert!(values_equal("base", "base"));
        assert!(!values_equal("base", "philly"));
        assert!(values_equal("", ""));
    }

    #[test]
    fn malformed_baselines_error_with_line_numbers() {
        assert!(parse_baseline("").unwrap_err().contains("empty"));
        assert!(parse_baseline("a,b,c\n1,2,3")
            .unwrap_err()
            .contains("no 'trace' column"));
        let outcomes = vec![outcome("rubick", 1.0)];
        let mut csv = render_csv(&outcomes);
        csv.push_str("short,row\n");
        let err = parse_baseline(&csv).unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        // Duplicate cells are ambiguous.
        let dup = render_csv(&[outcome("rubick", 1.0), outcome("rubick", 1.0)]);
        assert!(parse_baseline(&dup).unwrap_err().contains("duplicate cell"));
    }

    #[test]
    fn chaos_knobs_are_part_of_the_key() {
        let quiet = outcome("rubick", 1.0);
        let mut chaotic = outcome("rubick", 1.0);
        chaotic.spec.chaos = Some(ChaosKnobs {
            failure_rate_per_hour: 0.25,
            seed: 9,
        });
        let baseline = parse_baseline(&render_csv(std::slice::from_ref(&quiet))).unwrap();
        let diff = diff_outcomes(&baseline, &[chaotic]);
        assert_eq!(diff.added.len(), 1);
        assert_eq!(diff.missing.len(), 1);
        assert_eq!(diff.matched, 0);
    }
}
